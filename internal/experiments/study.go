package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
)

// caseStudy is what distinguishes the threshold-estimation case
// studies of Figs. 3, 5 and 8; runCases does the rest.
type caseStudy[W core.Sampled] struct {
	id    string // figure id, for error messages
	set   []datasets.Dataset
	build func(datasets.Dataset) (W, error)
	// searcher is the Identify strategy; nil means the framework's
	// default.
	searcher core.Searcher
	// naiveStatic is the NaiveStatic threshold; nil means the
	// FLOPS-ratio CPU share in percent.
	naiveStatic func(W) float64
	// naive is the homogeneous baseline's duration; nil means the run
	// at threshold 0.
	naive func(W) (time.Duration, error)
	// diffPct normalizes |estimated − exhaustive| to the threshold
	// range in percent; nil means the plain difference (the range is
	// [0, 100]).
	diffPct func(w W, est, best float64) float64
}

// runCases finds, for every dataset of the study's set that opts
// selects, the best threshold exhaustively, estimates one by sampling,
// and evaluates both plus the NaiveStatic, NaiveAverage (mean of the
// exhaustive optima) and naive baselines.
func runCases[W core.Sampled](opts Options, c caseStudy[W]) ([]CaseRow, error) {
	o := opts.withDefaults()
	var ds []datasets.Dataset
	for _, d := range c.set {
		if o.wants(d.Name) {
			ds = append(ds, d)
		}
	}
	rows, err := forEach(ds, func(d datasets.Dataset) (CaseRow, error) {
		w, err := c.build(d)
		if err != nil {
			return CaseRow{}, err
		}
		return c.row(d.Name, w, o)
	})
	if err != nil {
		return nil, err
	}
	// NaiveAverage needs all exhaustive optima; fill it in and
	// evaluate nothing further (its time column would coincide with a
	// plain run at that threshold and is not plotted in the paper).
	bests := make([]float64, len(rows))
	for i, r := range rows {
		bests[i] = r.Exhaustive
	}
	avg := core.NaiveAverage(bests)
	for i := range rows {
		rows[i].NaiveAverage = avg
	}
	return rows, nil
}

func (c caseStudy[W]) row(name string, w W, o Options) (CaseRow, error) {
	ctx := context.Background()
	best, err := core.ExhaustiveBest(ctx, w, core.Config{Parallelism: o.Parallelism})
	if err != nil {
		return CaseRow{}, fmt.Errorf("%s %s exhaustive: %w", c.id, name, err)
	}
	est, err := core.EstimateThreshold(ctx, w, core.Config{
		Searcher:    c.searcher,
		Seed:        o.Seed ^ hashName(name),
		Repeats:     o.Repeats,
		Parallelism: o.Parallelism,
	})
	if err != nil {
		return CaseRow{}, fmt.Errorf("%s %s estimate: %w", c.id, name, err)
	}
	estTime, err := w.Evaluate(est.Threshold)
	if err != nil {
		return CaseRow{}, err
	}
	var naive time.Duration
	if c.naive != nil {
		naive, err = c.naive(w)
	} else {
		naive, err = w.Evaluate(0)
	}
	if err != nil {
		return CaseRow{}, err
	}
	row := CaseRow{
		Dataset:          name,
		Exhaustive:       best.Best,
		Estimated:        est.Threshold,
		NaiveStatic:      100 * o.Platform.StaticCPUShare(),
		ThresholdDiffPct: math.Abs(est.Threshold - best.Best),
		ExhaustiveTime:   best.BestTime,
		EstimatedTime:    estTime,
		NaiveTime:        naive,
		TimeDiffPct:      100 * (float64(estTime)/float64(best.BestTime) - 1),
		OverheadPct:      100 * float64(est.Overhead()) / float64(est.Overhead()+estTime),
		SearchCost:       best.Cost,
	}
	if c.naiveStatic != nil {
		row.NaiveStatic = c.naiveStatic(w)
	}
	if c.diffPct != nil {
		row.ThresholdDiffPct = c.diffPct(w, est.Threshold, best.Best)
	}
	return row, nil
}

// sizeStep is one rung of a sample-size ladder: size maps the input
// dimension n to the sample size.
type sizeStep struct {
	label string
	size  func(n int) int
}

// sqrtLadder is SampleSizeLadder as sizeSteps: Factor·√n.
func sqrtLadder() []sizeStep {
	steps := make([]sizeStep, len(SampleSizeLadder))
	for i, st := range SampleSizeLadder {
		steps[i] = sizeStep{st.Label, func(n int) int { return int(st.Factor * math.Sqrt(float64(n))) }}
	}
	return steps
}

// sensitivityStudy is what distinguishes the sample-size sensitivity
// studies of Figs. 4, 6 and 9; runSensitivity does the rest.
type sensitivityStudy struct {
	id       string   // figure id, for error messages
	defaults []string // datasets when Options.Names is empty
	ladder   []sizeStep
	minSize  int
	// load reads dataset d and returns its dimension n and a builder
	// of the workload that samples size vertices or rows.
	load     func(d datasets.Dataset) (n int, at func(size int) (core.Sampled, error), err error)
	searcher core.Searcher
}

// runSensitivity estimates the threshold at every rung of the ladder
// and records the estimation time and the total time (estimation plus
// the run at the resulting threshold).
func runSensitivity(opts Options, s sensitivityStudy) ([]SensitivitySeries, error) {
	o := opts.withDefaults()
	names := o.Names
	if len(names) == 0 {
		names = s.defaults
	}
	return forEach(names, func(name string) (SensitivitySeries, error) {
		series := SensitivitySeries{Dataset: name}
		d, err := datasets.ByName(name)
		if err != nil {
			return series, err
		}
		n, at, err := s.load(d)
		if err != nil {
			return series, err
		}
		for _, step := range s.ladder {
			size := max(step.size(n), s.minSize)
			w, err := at(size)
			if err != nil {
				return series, err
			}
			est, err := core.EstimateThreshold(context.Background(), w, core.Config{
				Searcher:    s.searcher,
				Seed:        o.Seed ^ hashName(name) ^ uint64(size),
				Repeats:     o.Repeats,
				Parallelism: o.Parallelism,
			})
			if err != nil {
				return series, fmt.Errorf("%s %s size %d: %w", s.id, name, size, err)
			}
			runTime, err := w.Evaluate(est.Threshold)
			if err != nil {
				return series, err
			}
			series.Points = append(series.Points, SensitivityPoint{
				Label:          step.label,
				SampleSize:     size,
				EstimationTime: est.Overhead(),
				TotalTime:      est.Overhead() + runTime,
				Threshold:      est.Threshold,
			})
		}
		return series, nil
	})
}
