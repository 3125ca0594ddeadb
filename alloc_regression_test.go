package repro

// Allocation regression tests for the evaluation hot path. The
// Identify stage's parallel speedup depends on grid-point evaluations
// staying off the heap: per-evaluation allocation serializes workers
// on the allocator and GC, which is how the PR-4 engine ended up
// slower in parallel than sequential on the old single-core baseline.
// These tests pin the steady-state allocation counts so a regression
// shows up as a test failure, not as a silently flat speedup curve.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetcc"
	"repro/internal/hetscale"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/workloads"
)

// evalWorkloads builds one workload per case study on a full Table II
// replica, the same inputs the search benchmark sweeps.
func evalWorkloads(t testing.TB) map[string]core.Workload {
	t.Helper()
	platform := hetsim.Default()
	ws := map[string]core.Workload{}

	d, err := datasets.ByName("germany_osm")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	ws["cc"] = hetcc.NewWorkload("germany_osm", g, hetcc.NewAlgorithm(platform))

	d, err = datasets.ByName("cant")
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	spmm, err := hetspmm.NewWorkload("cant", m, hetspmm.NewAlgorithm(platform))
	if err != nil {
		t.Fatal(err)
	}
	ws["spmm"] = spmm

	d, err = datasets.ByName("web-BerkStan")
	if err != nil {
		t.Fatal(err)
	}
	m, err = d.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	scale, err := hetscale.NewWorkload("web-BerkStan", m, hetscale.NewAlgorithm(platform))
	if err != nil {
		t.Fatal(err)
	}
	ws["scale"] = scale
	return ws
}

// TestEvaluateAllocsPinned pins the per-grid-point allocation count of
// every workload's Evaluate. cc was the offender: before the scratch
// arenas it allocated ~200k times per evaluation (edge-list partition,
// FromEdges rebuilds, per-call label/union-find state); it now runs
// out of a pooled runScratch. The pins leave a little headroom for
// sync.Pool refills after a GC, nothing more.
func TestEvaluateAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	limits := map[string]float64{"cc": 4, "spmm": 1, "scale": 1}
	for name, w := range evalWorkloads(t) {
		if _, err := w.Evaluate(37); err != nil { // warm the scratch pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := w.Evaluate(37); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limits[name] {
			t.Errorf("%s: %v allocs per Evaluate, want <= %v", name, allocs, limits[name])
		}
	}
}

// TestSearchEngineAllocsPinned pins the engine's own overhead: a whole
// search — tracker, memo, grid, parallel fan-out, commit — on an
// allocation-free workload must cost only a handful of allocations,
// sequentially and at parallelism 8. Before the persistent pool and
// the recycled tracker/arena buffers this was 29 allocations for a
// 9-evaluation race-then-fine window and 38 for an exhaustive sweep at
// parallelism 8.
func TestSearchEngineAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	w := evalWorkloads(t)["spmm"]
	cases := []struct {
		name     string
		searcher core.Searcher
		par      int
		limit    float64
	}{
		{"exhaustive/p1", core.Exhaustive{}, 1, 6},
		{"exhaustive/p8", core.Exhaustive{}, 8, 10},
		{"race-then-fine/p1", &core.RaceThenFine{Window: 4}, 1, 6},
		{"race-then-fine/p8", &core.RaceThenFine{Window: 4}, 8, 10},
	}
	for _, c := range cases {
		ctx := core.WithParallelism(context.Background(), c.par)
		if _, err := c.searcher.Search(ctx, w, 0, 100); err != nil { // warm pools & pool workers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.searcher.Search(ctx, w, 0, 100); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.limit {
			t.Errorf("%s: %v allocs per search, want <= %v", c.name, allocs, c.limit)
		}
	}
}

// uploadBody renders a generated power-law matrix as the MatrixMarket
// text an upload carries.
func uploadBody(t testing.TB, rows, nnz int) []byte {
	t.Helper()
	m, err := sparse.Generate(sparse.GenConfig{Class: sparse.ClassPowerLaw, Rows: rows, NNZ: nnz, Seed: 9101})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mmio.Write(&buf, m.ToCOO()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ingestUpload is hetserve's upload path up to the built workload:
// parse, CSR build, workload construction.
func ingestUpload(t testing.TB, body []byte, workload string) {
	coo, err := mmio.ReadLimited(bytes.NewReader(body), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.Build(workload, "upload", workloads.Matrix{M: m}, hetsim.Default(), nil); err != nil {
		t.Fatal(err)
	}
}

// Upload ingest pins: about 47 allocations at the 12,000-row shape.
// Doubling the input adds ~11, the extra append growth steps of the
// COO slices.
const (
	ingestAllocCeiling = 64
	ingestAllocGrowth  = 16
)

// TestUploadIngestAllocsPinned pins the allocation count of turning an
// upload into a workload, on the 12,000-row, 40,000-nnz shape the
// end-to-end benchmark uploads. The count must not grow with the
// input: doubling rows and nnz may add only a few append growth steps.
// Before the byte-level MatrixMarket scanner and the allocation-free
// CSR row sort, one ingest cost 92k (spmm, scalefree) to 116k (cc)
// allocations: one string and one Fields slice per parsed line, and
// one or two per row of every CSR build.
func TestUploadIngestAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	small, large := uploadBody(t, 12000, 40000), uploadBody(t, 24000, 80000)
	for _, wl := range []string{workloads.CC, workloads.SpMM, workloads.ScaleFree} {
		at := func(body []byte) float64 {
			return testing.AllocsPerRun(3, func() { ingestUpload(t, body, wl) })
		}
		a1, a2 := at(small), at(large)
		t.Logf("%s: %v allocs at 1x, %v at 2x", wl, a1, a2)
		if a1 > ingestAllocCeiling {
			t.Errorf("%s: %v allocs per ingest, want <= %v", wl, a1, ingestAllocCeiling)
		}
		if a2 > a1+ingestAllocGrowth {
			t.Errorf("%s: %v allocs at 2x rows and nnz vs %v at 1x, want at most %v more", wl, a2, a1, ingestAllocGrowth)
		}
	}
}
