package experiments

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetcc"
)

// Fig3Result holds the CC threshold/time comparison of Fig. 3(a)+(b).
type Fig3Result struct {
	Rows []CaseRow
}

// Fig3 reproduces the connected-components case study over the Table II
// graphs: for each graph it finds the best threshold exhaustively,
// estimates one by sampling, and evaluates both plus the NaiveStatic
// (FLOPS ratio), NaiveAverage (mean of exhaustive optima) and Naive
// (GPU-only) baselines.
func Fig3(opts Options) (*Fig3Result, error) {
	o := opts.withDefaults()
	alg := hetcc.NewAlgorithm(o.Platform)
	rows, err := runCases(o, caseStudy[*hetcc.Workload]{
		id:  "fig3",
		set: datasets.All(),
		build: func(d datasets.Dataset) (*hetcc.Workload, error) {
			g, err := d.Graph()
			if err != nil {
				return nil, err
			}
			return hetcc.NewWorkload(d.Name, g, alg), nil
		},
		naive: func(w *hetcc.Workload) (time.Duration, error) {
			gpuOnly, err := alg.RunGPUOnly(w.Graph())
			if err != nil {
				return 0, err
			}
			return gpuOnly.Time, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Rows: rows}, nil
}

// hashName mixes a dataset name into the seed so each dataset draws an
// independent sample stream.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Render writes the figure as text.
func (r *Fig3Result) Render(w io.Writer) {
	renderCaseRows(w, "Fig. 3 — CC: sampling-estimated thresholds vs exhaustive search", r.Rows)
}

// Fig4Result holds the CC sample-size sensitivity study.
type Fig4Result struct {
	Series []SensitivitySeries
}

// Fig4 reproduces the CC sensitivity study: the sample size varies
// over √n/4 … 4√n and the total time (estimation + run at the
// resulting threshold) exhibits a near-concave shape with its minimum
// around √n. The paper shows two graphs; the default set is one web
// graph and one road network.
func Fig4(opts Options) (*Fig4Result, error) {
	o := opts.withDefaults()
	alg := hetcc.NewAlgorithm(o.Platform)
	series, err := runSensitivity(o, sensitivityStudy{
		id:       "fig4",
		defaults: []string{"web-BerkStan", "netherlands_osm"},
		ladder:   sqrtLadder(),
		minSize:  2,
		load: func(d datasets.Dataset) (int, func(int) (core.Sampled, error), error) {
			g, err := d.Graph()
			if err != nil {
				return 0, nil, err
			}
			return g.N, func(size int) (core.Sampled, error) {
				w := hetcc.NewWorkload(d.Name, g, alg)
				w.SampleSize = size
				return w, nil
			}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Series: series}, nil
}

// SampleSizeLadder is the √n-relative ladder the paper sweeps in
// Figs. 4 and 9.
var SampleSizeLadder = []struct {
	Label  string
	Factor float64
}{
	{"sqrt(n)/4", 0.25},
	{"sqrt(n)/2", 0.5},
	{"sqrt(n)", 1},
	{"2*sqrt(n)", 2},
	{"4*sqrt(n)", 4},
}

// Render writes the figure as text.
func (r *Fig4Result) Render(w io.Writer) {
	renderSensitivity(w, "Fig. 4 — CC: sample size vs estimation and total time", r.Series)
}

// MinimumNear reports whether the series' total-time minimum falls at
// the ladder entry with the given label (the paper: at √n).
func (s SensitivitySeries) MinimumNear(label string) bool {
	if len(s.Points) == 0 {
		return false
	}
	best := 0
	for i, p := range s.Points {
		if p.TotalTime < s.Points[best].TotalTime {
			best = i
		}
	}
	return s.Points[best].Label == label
}
