package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetspmm"
	"repro/internal/sparse"
)

// spmmSearcher is the paper's Identify strategy for SpMM: a race-based
// coarse estimate refined by a ±5 fine sweep.
func spmmSearcher() core.Searcher { return core.RaceThenFine{Window: 4} }

// Fig5Result holds the SpMM split comparison of Fig. 5(a)+(b).
type Fig5Result struct {
	Rows []CaseRow
}

// Fig5 reproduces the unstructured-SpMM case study over the Table II
// matrices (A×A), comparing the sampling-estimated split percentage
// against the exhaustive optimum, NaiveStatic, and NaiveAverage.
func Fig5(opts Options) (*Fig5Result, error) {
	o := opts.withDefaults()
	alg := hetspmm.NewAlgorithm(o.Platform)
	rows, err := runCases(o, caseStudy[*hetspmm.Workload]{
		id:  "fig5",
		set: datasets.All(),
		build: func(d datasets.Dataset) (*hetspmm.Workload, error) {
			m, err := d.Matrix()
			if err != nil {
				return nil, err
			}
			return hetspmm.NewWorkload(d.Name, m, alg)
		},
		searcher: spmmSearcher(),
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Rows: rows}, nil
}

// Render writes the figure as text.
func (r *Fig5Result) Render(w io.Writer) {
	renderCaseRows(w, "Fig. 5 — SpMM: sampling-estimated split % vs exhaustive search", r.Rows)
}

// Fig6Result holds the SpMM sample-size sensitivity study.
type Fig6Result struct {
	Series []SensitivitySeries
}

// Fig6 reproduces the SpMM sensitivity study: the sample dimension
// varies from n/10 to 4n/10 and the total time is near-concave with a
// workable minimum around n/4 (the paper's chosen K).
func Fig6(opts Options) (*Fig6Result, error) {
	o := opts.withDefaults()
	alg := hetspmm.NewAlgorithm(o.Platform)
	series, err := runSensitivity(o, sensitivityStudy{
		id:       "fig6",
		defaults: []string{"cant", "web-BerkStan"},
		// The paper's Fig. 6 ladder: sample dimensions n/10 … 4n/10.
		ladder: []sizeStep{
			{"n/10", func(n int) int { return n / 10 }},
			{"n/5", func(n int) int { return n / 5 }},
			{"n/4", func(n int) int { return n / 4 }},
			{"3n/10", func(n int) int { return 3 * n / 10 }},
			{"4n/10", func(n int) int { return 4 * n / 10 }},
		},
		minSize: 1,
		load: func(d datasets.Dataset) (int, func(int) (core.Sampled, error), error) {
			m, err := d.Matrix()
			if err != nil {
				return 0, nil, err
			}
			return m.Rows, func(size int) (core.Sampled, error) {
				w, err := hetspmm.NewWorkload(d.Name, m, alg)
				if err != nil {
					return nil, err
				}
				// Express the sample size through the divisor interface.
				w.SampleDivisor = max(m.Rows/size, 1)
				return w, nil
			}, nil
		},
		searcher: spmmSearcher(),
	})
	if err != nil {
		return nil, err
	}
	return &Fig6Result{Series: series}, nil
}

// Render writes the figure as text.
func (r *Fig6Result) Render(w io.Writer) {
	renderSensitivity(w, "Fig. 6 — SpMM: sample size vs estimation and total time", r.Series)
}

// Fig7Row compares one sampling strategy's estimate on one matrix.
type Fig7Row struct {
	Dataset  string
	Strategy string // "random" or "block k"
	// Estimated is the split percentage obtained from this sample.
	Estimated float64
	// Exhaustive is the true optimum of the full input.
	Exhaustive float64
	// TimeAtEstimate is the full-input duration using Estimated.
	TimeAtEstimate time.Duration
}

// Fig7Result holds the role-of-randomness study.
type Fig7Result struct {
	Rows []Fig7Row
}

// Fig7 reproduces the role-of-randomness experiment: the SpMM split is
// estimated from four predetermined n/4 × n/4 blocks of A and from a
// random sample; predetermined samples inherit local structure and
// give biased estimates ("predetermined samples tend to be inaccurate
// in estimating the work partition threshold").
func Fig7(opts Options) (*Fig7Result, error) {
	o := opts.withDefaults()
	names := o.Names
	// The paper shows cant and cop20k; web-BerkStan is added because
	// its clustered hub rows make the predetermined-block bias vivid.
	if len(names) == 0 {
		names = []string{"cant", "cop20k_A", "web-BerkStan"}
	}
	alg := hetspmm.NewAlgorithm(o.Platform)
	res := &Fig7Result{}
	for _, name := range names {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		m, err := d.Matrix()
		if err != nil {
			return nil, err
		}
		w, err := hetspmm.NewWorkload(name, m, alg)
		if err != nil {
			return nil, err
		}
		best, err := core.ExhaustiveBest(context.Background(), w, core.Config{Parallelism: o.Parallelism})
		if err != nil {
			return nil, err
		}
		add := func(strategy string, estimate float64) error {
			t, err := w.Evaluate(estimate)
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows, Fig7Row{
				Dataset: name, Strategy: strategy,
				Estimated: estimate, Exhaustive: best.Best,
				TimeAtEstimate: t,
			})
			return nil
		}
		// Random sample estimate (the framework's default).
		est, err := core.EstimateThreshold(context.Background(), w, core.Config{
			Searcher:    spmmSearcher(),
			Seed:        o.Seed ^ hashName(name),
			Repeats:     o.Repeats,
			Parallelism: o.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		if err := add("random", est.Threshold); err != nil {
			return nil, err
		}
		// Four predetermined blocks: the corners of A.
		size := m.Rows / 4
		if size < 1 {
			size = 1
		}
		half := m.Rows / 2
		for k, off := range [][2]int{{0, 0}, {0, half}, {half, 0}, {half, half}} {
			block, err := sparse.BlockSubmatrix(m, off[0], off[1], size)
			if err != nil {
				return nil, err
			}
			bw, err := hetspmm.NewWorkload(fmt.Sprintf("%s-block%d", name, k), block, alg)
			if err != nil {
				return nil, err
			}
			sr, err := spmmSearcher().Search(context.Background(), bw, 0, 100)
			if err != nil {
				return nil, err
			}
			if err := add(fmt.Sprintf("block %d", k+1), sr.Best); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// Render writes the figure as text.
func (r *Fig7Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 7 — role of randomness: random vs predetermined samples (SpMM)")
	fmt.Fprintf(w, "%-12s %-10s %10s %10s %8s %14s\n",
		"dataset", "strategy", "estimated", "exhaustive", "|Δ|", "time@estimate")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-10s %10.1f %10.1f %8.1f %14v\n",
			row.Dataset, row.Strategy, row.Estimated, row.Exhaustive,
			math.Abs(row.Estimated-row.Exhaustive), row.TimeAtEstimate.Round(time.Microsecond))
	}
}
