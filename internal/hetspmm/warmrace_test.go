package hetspmm

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/sparse"
)

// TestRaceThenFineWarmStartEvaluates — a warm start narrows Identify
// to a window the race guess may lie far outside of. The fine sweep
// must then re-center on the guess clamped into that window instead of
// evaluating nothing, for every upload class and both range edges.
func TestRaceThenFineWarmStartEvaluates(t *testing.T) {
	for _, class := range []sparse.Class{sparse.ClassPowerLaw, sparse.ClassRoad, sparse.ClassFEM} {
		a := testMatrix(t, class, 3000, 30000, 5)
		w, err := NewWorkload("upload", a, NewAlgorithm(hetsim.Default()))
		if err != nil {
			t.Fatal(err)
		}
		for _, warm := range []float64{0, 100} {
			est, err := core.EstimateThreshold(context.Background(), w, core.Config{
				Searcher:  core.RaceThenFine{Window: 4},
				Seed:      42,
				Repeats:   3,
				WarmStart: &core.WarmStart{Threshold: warm},
			})
			if err != nil {
				t.Fatalf("class %v warm %v: %v", class, warm, err)
			}
			if est.Evals == 0 {
				t.Errorf("class %v warm %v: no evaluations", class, warm)
			}
			if est.SampleThreshold < warm-core.DefaultWarmWindow || est.SampleThreshold > warm+core.DefaultWarmWindow {
				t.Errorf("class %v warm %v: sample threshold %v left the warm window", class, warm, est.SampleThreshold)
			}
		}
	}
}
