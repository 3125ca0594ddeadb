package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetcc"
	"repro/internal/hetspmm"
)

// AblationSamplerRow compares the contracted and induced CC samplers
// on one graph.
type AblationSamplerRow struct {
	Dataset    string
	Exhaustive float64
	// Contracted / Induced / Importance are the estimates from each
	// sampler, with the time achieved at each.
	Contracted, Induced, Importance             float64
	ContractedTime, InducedTime, ImportanceTime time.Duration
	ExhaustiveTime                              time.Duration
}

// AblationSamplerResult holds the CC sampler ablation.
type AblationSamplerResult struct {
	Rows []AblationSamplerRow
}

// AblationSampler contrasts the default contracted CC sampler with the
// plain induced subgraph G[S] and the degree-biased importance
// variant. At √n vertices an induced sample of a sparse graph is
// nearly empty and its estimate is essentially noise, which is why the
// contraction (that keeps per-vertex adjacency) is the default; the
// importance variant is the paper's deferred future-work idea and
// serves as a second point of comparison. This is the evidence behind
// DESIGN.md's sampler choice.
func AblationSampler(opts Options) (*AblationSamplerResult, error) {
	o := opts.withDefaults()
	names := o.Names
	if len(names) == 0 {
		names = []string{"web-BerkStan", "netherlands_osm", "cant"}
	}
	alg := hetcc.NewAlgorithm(o.Platform)
	rows, err := forEach(names, func(name string) (AblationSamplerRow, error) {
		d, err := datasets.ByName(name)
		if err != nil {
			return AblationSamplerRow{}, err
		}
		g, err := d.Graph()
		if err != nil {
			return AblationSamplerRow{}, err
		}
		w := hetcc.NewWorkload(name, g, alg)
		best, err := core.ExhaustiveBest(context.Background(), w, core.Config{Parallelism: o.Parallelism})
		if err != nil {
			return AblationSamplerRow{}, err
		}
		row := AblationSamplerRow{Dataset: name, Exhaustive: best.Best, ExhaustiveTime: best.BestTime}
		// estimate samples with the given sampler and times the full
		// input at the resulting threshold.
		estimate := func(induced, importance bool) (float64, time.Duration, error) {
			sw := hetcc.NewWorkload(name, g, alg)
			sw.Induced, sw.Importance = induced, importance
			est, err := core.EstimateThreshold(context.Background(), sw, core.Config{Seed: o.Seed ^ hashName(name), Repeats: o.Repeats, Parallelism: o.Parallelism})
			if err != nil {
				return 0, 0, err
			}
			t, err := w.Evaluate(est.Threshold)
			return est.Threshold, t, err
		}
		if row.Contracted, row.ContractedTime, err = estimate(false, false); err != nil {
			return AblationSamplerRow{}, err
		}
		if row.Induced, row.InducedTime, err = estimate(true, false); err != nil {
			return AblationSamplerRow{}, err
		}
		if row.Importance, row.ImportanceTime, err = estimate(false, true); err != nil {
			return AblationSamplerRow{}, err
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationSamplerResult{Rows: rows}, nil
}

// Render writes the ablation as text.
func (r *AblationSamplerResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablation — CC sampler: contracted (default) vs induced G[S] vs importance")
	fmt.Fprintf(w, "%-17s %10s %12s %12s %12s %12s %12s %12s %12s\n",
		"dataset", "exhaustive", "contracted", "t(contr)", "induced", "t(induced)",
		"importance", "t(import)", "t(best)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-17s %10.1f %12.1f %12v %12.1f %12v %12.1f %12v %12v\n",
			row.Dataset, row.Exhaustive, row.Contracted,
			row.ContractedTime.Round(time.Microsecond), row.Induced,
			row.InducedTime.Round(time.Microsecond), row.Importance,
			row.ImportanceTime.Round(time.Microsecond),
			row.ExhaustiveTime.Round(time.Microsecond))
	}
}

// AblationSearcherRow compares Identify strategies on one SpMM input.
type AblationSearcherRow struct {
	Dataset  string
	Searcher string
	// Best is the threshold the strategy found on the full input (so
	// strategies are compared on the same landscape, isolating search
	// quality from sampling noise).
	Best float64
	// Evals and Cost measure the search effort.
	Evals int
	Cost  time.Duration
	// GapPct is the time at Best relative to the exhaustive optimum.
	GapPct float64
}

// AblationSearcherResult holds the Identify-strategy ablation.
type AblationSearcherResult struct {
	Rows []AblationSearcherRow
}

// AblationSearcher compares the Identify strategies (exhaustive,
// coarse-to-fine, gradient descent, race-then-fine) by evaluation
// count and result quality on full SpMM inputs.
func AblationSearcher(opts Options) (*AblationSearcherResult, error) {
	o := opts.withDefaults()
	names := o.Names
	if len(names) == 0 {
		names = []string{"cant", "web-BerkStan"}
	}
	alg := hetspmm.NewAlgorithm(o.Platform)
	res := &AblationSearcherResult{}
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
		exh, err := core.ExhaustiveBest(context.Background(), w, core.Config{Parallelism: o.Parallelism})
		if err != nil {
			return nil, err
		}
		for _, s := range []core.Searcher{
			core.Exhaustive{},
			core.CoarseToFine{},
			core.GradientDescent{},
			core.RaceThenFine{Window: 4},
		} {
			sr, err := s.Search(context.Background(), w, 0, 100)
			if err != nil {
				return nil, fmt.Errorf("ablation %s/%s: %w", name, s.Name(), err)
			}
			tb, err := w.Evaluate(sr.Best)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, AblationSearcherRow{
				Dataset:  name,
				Searcher: s.Name(),
				Best:     sr.Best,
				Evals:    sr.Evals,
				Cost:     sr.Cost,
				GapPct:   100 * (float64(tb)/float64(exh.BestTime) - 1),
			})
		}
	}
	return res, nil
}

// Render writes the ablation as text.
func (r *AblationSearcherResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablation — Identify strategies on full SpMM inputs")
	fmt.Fprintf(w, "%-14s %-24s %8s %6s %14s %8s\n",
		"dataset", "searcher", "best", "evals", "search cost", "gap %")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-24s %8.1f %6d %14v %8.2f\n",
			row.Dataset, row.Searcher, row.Best, row.Evals,
			row.Cost.Round(time.Microsecond), row.GapPct)
	}
}

// WorstInducedGap returns the largest CC-time gap (in percent over the
// exhaustive optimum) incurred by the induced sampler across the rows.
func (r *AblationSamplerResult) WorstInducedGap() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		g := 100 * (float64(row.InducedTime)/float64(row.ExhaustiveTime) - 1)
		worst = math.Max(worst, g)
	}
	return worst
}
