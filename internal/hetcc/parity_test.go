package hetcc

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetsim"
	"repro/internal/xrand"
)

// TestMultiMatchesScalarAtTwoDevices pins the N-device CC model to the
// 2-device one: on a CPU plus one accelerator, MultiWorkload at the
// partition {t, 100-t} must charge exactly what Workload charges at
// threshold t, for every Table II graph, and one seeded sample must
// cost the same and evaluate the same. The two runners partition,
// compute and merge through different code (materialized subgraphs vs
// the split index), so this is what keeps them one model.
func TestMultiMatchesScalarAtTwoDevices(t *testing.T) {
	mp := hetsim.DefaultMulti(1)
	multi := NewMultiAlgorithm(mp)
	scalar := NewAlgorithm(&hetsim.Platform{CPU: mp.CPU, GPU: mp.GPUs[0], Link: mp.Link})
	for _, d := range datasets.All() {
		g, err := d.Graph()
		if err != nil {
			t.Fatal(err)
		}
		sw := NewWorkload(d.Name, g, scalar)
		mw := NewMultiWorkload(d.Name, g, multi)
		for _, th := range []float64{0, 0.5, 13, 37.25, 50, 81, 99.9, 100} {
			want, err := sw.Evaluate(th)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mw.EvaluatePartition(core.Partition{th, 100 - th})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s t=%v: multi %v, scalar %v", d.Name, th, got, want)
			}
		}
	}

	g, err := datasets.ByName("netherlands_osm")
	if err != nil {
		t.Fatal(err)
	}
	gg, err := g.Graph()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ss, sCost, err := NewWorkload(g.Name, gg, scalar).Sample(ctx, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	ms, mCost, err := NewMultiWorkload(g.Name, gg, multi).SamplePartition(ctx, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if sCost != mCost {
		t.Errorf("sample cost: multi %v, scalar %v", mCost, sCost)
	}
	want, err := ss.Evaluate(42)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ms.EvaluatePartition(core.Partition{42, 58})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sample eval at 42: multi %v, scalar %v", got, want)
	}
}
