package experiments

import (
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetscale"
)

// scaleFreeSearcher is the paper's Identify strategy for HH-CPU
// ("a gradient descent based approach").
func scaleFreeSearcher() core.Searcher { return core.GradientDescent{} }

// Fig8Result holds the scale-free SpMM comparison of Fig. 8(a)+(b).
type Fig8Result struct {
	Rows []CaseRow
}

// Fig8 reproduces the HH-CPU case study over the paper's scale-free
// subset of Table II. Thresholds here are row-density counts, so the
// threshold-difference column is normalized by each input's density
// range.
func Fig8(opts Options) (*Fig8Result, error) {
	o := opts.withDefaults()
	alg := hetscale.NewAlgorithm(o.Platform)
	rows, err := runCases(o, caseStudy[*hetscale.Workload]{
		id:  "fig8",
		set: datasets.ScaleFreeSet(),
		build: func(d datasets.Dataset) (*hetscale.Workload, error) {
			m, err := d.Matrix()
			if err != nil {
				return nil, err
			}
			return hetscale.NewWorkload(d.Name, m, alg)
		},
		searcher: scaleFreeSearcher(),
		// NaiveStatic for a density threshold: the density quantile
		// that sends the FLOPS-ratio share of the work to the CPU.
		naiveStatic: func(w *hetscale.Workload) float64 { return staticDensityThreshold(w, o) },
		diffPct: func(w *hetscale.Workload, est, best float64) float64 {
			_, hi := w.ThresholdRange()
			if hi <= 0 {
				return 0
			}
			return 100 * math.Abs(est-best) / hi
		},
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Rows: rows}, nil
}

// staticDensityThreshold finds the density threshold assigning the
// NaiveStatic work share to the CPU via bisection over the profile.
func staticDensityThreshold(w *hetscale.Workload, o Options) float64 {
	share := o.Platform.StaticCPUShare()
	_, hi := w.ThresholdRange()
	p := w.Profile()
	total := float64(p.TotalWork())
	lo, hiT := 0.0, hi
	for i := 0; i < 40; i++ {
		mid := (lo + hiT) / 2
		if cpuWorkShare(p, mid, total) > share {
			lo = mid // too much CPU work: raise the threshold
		} else {
			hiT = mid
		}
	}
	return math.Round(lo)
}

func cpuWorkShare(p *hetscale.Profile, t, total float64) float64 {
	if total == 0 {
		return 0
	}
	return float64(p.CPUWorkAt(t)) / total
}

// Render writes the figure as text.
func (r *Fig8Result) Render(w io.Writer) {
	renderCaseRows(w, "Fig. 8 — scale-free SpMM (HH-CPU): estimated density threshold vs exhaustive", r.Rows)
}

// Fig9Result holds the scale-free sample-size sensitivity study.
type Fig9Result struct {
	Series []SensitivitySeries
}

// Fig9 reproduces the HH-CPU sensitivity study: sampled row counts
// √n/4 … 4√n, total time near-concave with the minimum around √n.
func Fig9(opts Options) (*Fig9Result, error) {
	o := opts.withDefaults()
	alg := hetscale.NewAlgorithm(o.Platform)
	series, err := runSensitivity(o, sensitivityStudy{
		id:       "fig9",
		defaults: []string{"web-BerkStan", "cant"},
		ladder:   sqrtLadder(),
		minSize:  2,
		load: func(d datasets.Dataset) (int, func(int) (core.Sampled, error), error) {
			m, err := d.Matrix()
			if err != nil {
				return 0, nil, err
			}
			return m.Rows, func(size int) (core.Sampled, error) {
				w, err := hetscale.NewWorkload(d.Name, m, alg)
				if err != nil {
					return nil, err
				}
				w.SampleRows = size
				return w, nil
			}, nil
		},
		searcher: scaleFreeSearcher(),
	})
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Series: series}, nil
}

// Render writes the figure as text.
func (r *Fig9Result) Render(w io.Writer) {
	renderSensitivity(w, "Fig. 9 — scale-free SpMM: sample size vs estimation and total time", r.Series)
}
