package repro

// BenchmarkSearch compares sequential and parallel Identify searches
// on full Table II replicas and writes BENCH_search.json — the
// parallel-search counterpart of the gateway's BENCH_gate.json.
//
//	go test -bench=BenchmarkSearch -benchtime=1x
//
// Each case runs the same searcher twice over the same workload: once
// with Parallelism=1 (the historical sequential engine) and once with
// Parallelism=8. The report records the wall-clock of both, the
// speedup, allocations per grid-point evaluation, and whether the two
// SearchResults are byte-identical (they must be — parallelism is not
// allowed to change any result field, including Evals, Cost and the
// Curve order).
//
// The harness refuses to write a report when GOMAXPROCS is 1: a
// single-core recording shows ~1× "speedup" by construction, and the
// original BENCH_search.json baseline was recorded exactly that way,
// which let the CI regression gate pass while the parallel engine was
// in fact slower than sequential. Re-run with GOMAXPROCS>=4 (the CI
// runners have 4 vCPUs) to record a meaningful baseline.

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetcc"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
)

// benchParallelism is the explicit parallel arm of every case. It is a
// constant — not GOMAXPROCS — so reports recorded on different hosts
// measure the same configuration and stay comparable.
const benchParallelism = 8

type searchBenchCase struct {
	Searcher string `json:"searcher"`
	Workload string `json:"workload"`
	Dataset  string `json:"dataset"`
	Evals    int    `json:"evals"`
	// Wall-clock milliseconds per search at Parallelism=1 and at
	// Parallelism=benchParallelism, and their ratio.
	SequentialMS float64 `json:"sequential_ms"`
	ParallelMS   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
	// Heap allocations per grid-point evaluation in each arm,
	// measured as the runtime.MemStats.Mallocs delta across the
	// timed loop divided by iterations×evals.
	SequentialAllocsPerEval float64 `json:"sequential_allocs_per_eval"`
	ParallelAllocsPerEval   float64 `json:"parallel_allocs_per_eval"`
	// Identical is true when the two SearchResults marshal to the
	// same bytes (Best, BestTime, Evals, Cost and Curve all equal).
	Identical bool `json:"identical"`
}

type searchBenchReport struct {
	GOMAXPROCS  int               `json:"gomaxprocs"`
	NumCPU      int               `json:"num_cpu"`
	Parallelism int               `json:"parallelism"`
	Cases       []searchBenchCase `json:"cases"`
}

// timeSearch runs the searcher as a sub-benchmark pinned to the given
// parallelism and returns the result, per-iteration wall-clock, and
// per-iteration heap allocation count.
func timeSearch(b *testing.B, name string, s core.Searcher, w core.Workload, par int) (core.SearchResult, time.Duration, float64) {
	var res core.SearchResult
	var perIter time.Duration
	var allocsPerIter float64
	b.Run(name, func(b *testing.B) {
		ctx := core.WithParallelism(context.Background(), par)
		lo, hi := core.RangeOf(w, core.Config{})
		// One untimed run to warm scratch pools and spawn pool
		// workers, so the measurement sees the steady state.
		if _, err := s.Search(ctx, w, lo, hi); err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := s.Search(ctx, w, lo, hi)
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		perIter = b.Elapsed() / time.Duration(b.N)
		allocsPerIter = float64(after.Mallocs-before.Mallocs) / float64(b.N)
	})
	return res, perIter, allocsPerIter
}

func ccWorkload(b *testing.B, platform *hetsim.Platform, name string) core.Workload {
	b.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		b.Fatal(err)
	}
	return hetcc.NewWorkload(name, g, hetcc.NewAlgorithm(platform))
}

func spmmWorkload(b *testing.B, platform *hetsim.Platform, name string) core.Workload {
	b.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := d.Matrix()
	if err != nil {
		b.Fatal(err)
	}
	w, err := hetspmm.NewWorkload(name, m, hetspmm.NewAlgorithm(platform))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkSearch drives the three searchers sequentially and at
// Parallelism=8 and writes the BENCH_search.json report.
func BenchmarkSearch(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Fatal("refusing to record BENCH_search.json at GOMAXPROCS=1: " +
			"a single-core run cannot measure parallel speedup and would " +
			"poison the regression baseline; re-run with GOMAXPROCS>=4")
	}
	platform := hetsim.Default()
	report := searchBenchReport{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Parallelism: benchParallelism,
	}

	// germany_osm is the largest replica by vertex count, so its CC
	// evaluations are the most expensive in the registry — the case
	// parallel search helps most. cant/SpMM evaluations are cheap
	// profile lookups, the case it helps least.
	cases := []struct {
		searcher core.Searcher
		workload string
		dataset  string
		build    func(*testing.B, *hetsim.Platform, string) core.Workload
	}{
		{core.Exhaustive{Step: 1}, "cc", "germany_osm", ccWorkload},
		{core.CoarseToFine{}, "cc", "germany_osm", ccWorkload},
		{core.RaceThenFine{Window: 4}, "spmm", "cant", spmmWorkload},
	}

	for _, c := range cases {
		w := c.build(b, platform, c.dataset)
		base := c.searcher.Name() + "/" + c.workload + "/" + c.dataset
		seqRes, seqTime, seqAllocs := timeSearch(b, base+"/p=1", c.searcher, w, 1)
		parRes, parTime, parAllocs := timeSearch(b, base+"/p=8", c.searcher, w, benchParallelism)

		seqJSON, err := json.Marshal(seqRes)
		if err != nil {
			b.Fatal(err)
		}
		parJSON, err := json.Marshal(parRes)
		if err != nil {
			b.Fatal(err)
		}
		identical := string(seqJSON) == string(parJSON)
		if !identical {
			b.Errorf("%s: parallel result differs from sequential:\n  seq %s\n  par %s", base, seqJSON, parJSON)
		}
		speedup := 0.0
		if parTime > 0 {
			speedup = float64(seqTime) / float64(parTime)
		}
		// On a real multi-core host the parallel arm of the expensive
		// exhaustive CC sweep must beat the sequential arm outright —
		// the original engine failed exactly this, hidden by a
		// single-core recording. NumCPU-gated because GOMAXPROCS can
		// oversubscribe a smaller machine.
		_, isExhaustive := c.searcher.(core.Exhaustive)
		if runtime.NumCPU() >= 4 && c.workload == "cc" && isExhaustive {
			if parTime >= seqTime {
				b.Errorf("%s: parallel search (%.1fms) not faster than sequential (%.1fms) on a %d-CPU host",
					base, float64(parTime)/float64(time.Millisecond),
					float64(seqTime)/float64(time.Millisecond), runtime.NumCPU())
			}
		}
		evals := seqRes.Evals
		if evals == 0 {
			evals = 1
		}
		report.Cases = append(report.Cases, searchBenchCase{
			Searcher:                c.searcher.Name(),
			Workload:                c.workload,
			Dataset:                 c.dataset,
			Evals:                   seqRes.Evals,
			SequentialMS:            float64(seqTime) / float64(time.Millisecond),
			ParallelMS:              float64(parTime) / float64(time.Millisecond),
			Speedup:                 speedup,
			SequentialAllocsPerEval: seqAllocs / float64(evals),
			ParallelAllocsPerEval:   parAllocs / float64(evals),
			Identical:               identical,
		})
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_search.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_search.json (%d cases, gomaxprocs=%d, numcpu=%d)",
		len(report.Cases), report.GOMAXPROCS, report.NumCPU)
}
