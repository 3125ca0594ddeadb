// Command benchdiff compares a freshly recorded BENCH_search.json
// against the committed baseline and exits non-zero on regression.
//
//	go run ./cmd/benchdiff -baseline bench_baseline.json -current BENCH_search.json
//
// It is the CI gate for the parallel search engine, and it encodes the
// lesson of the original broken gate: the first BENCH_search.json was
// recorded at GOMAXPROCS=1, where sequential and parallel arms are the
// same thing, so the "parallel no slower than sequential" check was
// vacuously satisfiable while the engine was in fact slower on real
// multi-core hosts. benchdiff therefore refuses outright — before any
// per-case comparison — when either report was recorded on a single
// core, when either was recorded on a host with fewer than 4 CPUs
// (GOMAXPROCS can be raised above the physical core count, which
// oversubscribes instead of parallelizing and taints the recording
// just the same), or when the two reports were recorded at different
// GOMAXPROCS (a mismatch makes every wall-clock ratio meaningless).
//
// Per-case checks, keyed by (searcher, workload, dataset):
//
//   - identical must be true in the current report: parallelism is
//     never allowed to change a SearchResult.
//   - speedup must not regress below baseline by more than
//     -speedup-tolerance (fractional; wall-clock on shared CI runners
//     is noisy, so the default leaves 30% headroom).
//   - parallel allocations per evaluation must not regress beyond
//     -alloc-slack over the baseline (absolute; the hot path is pinned
//     near zero, so a small absolute slack is tighter than any ratio).
//   - every baseline case must still be present: silently dropping a
//     case is how coverage rots.
//
// -min-speedup additionally requires at least one current case with
// sequential wall-clock >= -min-speedup-floor-ms to reach that speedup,
// proving the parallel engine actually helps where evaluations are
// expensive. Cheap-evaluation cases (microsecond searches dominated by
// fixed overhead) are exempt from the floor, not from regression.
//
// -mode batch switches to the BENCH_batch.json contract written by
// hetgate -batch (N items through one /estimate-batch job versus the
// same inputs as sequential /estimate calls). The environment refusals
// are identical; the per-report checks gate only machine-independent
// ratios and structural invariants, never absolute wall-clock:
//
//   - both arms must be error-free, and the job shape (items, rounds,
//     backends) must match the baseline so ratios are comparable.
//   - batch/sequential speedup must reach -batch-min-speedup (the
//     amortization contract: 2x at 8 items) and must not regress below
//     baseline by more than -speedup-tolerance.
//   - time-to-first-result must stay under -ttfr-frac of
//     time-to-last-result: the streaming dividend. A buffered
//     implementation that holds results until the job ends shows
//     TTFR == TTLR and fails here even if throughput looks fine.
//   - admissions <= backends*rounds and builds <= items*rounds: one
//     aggregate admission per sub-batch and at most one build per item
//     are what the batch path exists to guarantee.
//
// -mode kernels switches to the BENCH_kernels.json contract written by
// BenchmarkKernels (per-kernel tuned-vs-reference timings). Unlike the
// other modes there are NO recording-environment refusals: every row
// is the ratio of two measurements taken in the same process on the
// same machine, so core count and clock speed cancel out and the gate
// checks only machine-independent ratios:
//
//   - the geometric-mean speedup must reach -kernels-min-geomean (the
//     tuning contract: tuned kernels beat the frozen references by
//     1.3x overall), and the recorded geomean must match the one
//     recomputed from the rows (a hand-edited report fails here).
//   - per kernel row, keyed by (kernel, dataset): the speedup must not
//     regress below baseline by more than -speedup-tolerance, and
//     every baseline row must still be present.
//
// -mode partition switches to the BENCH_partition.json contract
// written by BenchmarkPartition (N-device simplex search). The
// recording-environment refusals are stricter than search mode — any
// report recorded at GOMAXPROCS < 4 or num_cpu < 4 is refused, since
// both the parity overhead ratio and the simplex wall-clock assume a
// genuinely parallel evaluation engine. Per-report checks:
//
//   - the 2-device parity case must be identical: driving the scalar
//     searcher through the partition adapter is never allowed to
//     change the result. Its wall-clock overhead (vector/scalar) must
//     stay under -partition-max-overhead and must not grow beyond
//     baseline by more than -speedup-tolerance.
//   - per simplex row, keyed by (devices, workload, dataset): the
//     coordinate descent must stay within the -partition-eval-budget
//     evaluation ceiling (the whole point of descending instead of
//     sweeping), must use fewer evaluations than the exhaustive sweep
//     it was compared against, and where a sweep was recorded the
//     quality gap must stay within -partition-max-gap percent of the
//     simplex optimum (the paper-level 5% acceptance bar).
//   - every baseline simplex row must still be present.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
)

type benchCase struct {
	Searcher                string  `json:"searcher"`
	Workload                string  `json:"workload"`
	Dataset                 string  `json:"dataset"`
	Evals                   int     `json:"evals"`
	SequentialMS            float64 `json:"sequential_ms"`
	ParallelMS              float64 `json:"parallel_ms"`
	Speedup                 float64 `json:"speedup"`
	SequentialAllocsPerEval float64 `json:"sequential_allocs_per_eval"`
	ParallelAllocsPerEval   float64 `json:"parallel_allocs_per_eval"`
	Identical               bool    `json:"identical"`
}

type benchReport struct {
	GOMAXPROCS  int         `json:"gomaxprocs"`
	NumCPU      int         `json:"num_cpu"`
	Parallelism int         `json:"parallelism"`
	Cases       []benchCase `json:"cases"`
}

func (c benchCase) key() string {
	return c.Searcher + "/" + c.Workload + "/" + c.Dataset
}

type gateConfig struct {
	// SpeedupTolerance is the fractional speedup regression allowed
	// per case relative to baseline (0.3 = current may be 30% below).
	SpeedupTolerance float64
	// AllocSlack is the absolute allocs-per-eval regression allowed
	// in the parallel arm relative to baseline.
	AllocSlack float64
	// MinSpeedup must be reached by at least one case whose
	// sequential wall-clock is at least MinSpeedupFloorMS.
	MinSpeedup float64
	// MinSpeedupFloorMS exempts cheap searches (dominated by fixed
	// per-search overhead) from the MinSpeedup requirement.
	MinSpeedupFloorMS float64
}

// refuseCores reports the GOMAXPROCS refusals search and batch mode
// share: a single-core recording cannot measure what (a speedup), and
// reports recorded at different GOMAXPROCS are not comparable.
func refuseCores(fail func(string, ...any), what string, baseline, current int) {
	if baseline <= 1 {
		fail("baseline was recorded at GOMAXPROCS=%d: single-core recordings cannot measure %s and must never serve as a baseline; re-record with GOMAXPROCS>=4", baseline, what)
	}
	if current <= 1 {
		fail("current report was recorded at GOMAXPROCS=%d: re-run the benchmark with GOMAXPROCS>=4", current)
	}
	if baseline != current {
		fail("gomaxprocs mismatch: baseline %d vs current %d — wall-clock ratios are not comparable across different core counts", baseline, current)
	}
}

// diff returns every gate violation between baseline and current, in a
// stable order. An empty slice means the gate passes.
func diff(baseline, current benchReport, cfg gateConfig) []string {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Recording-environment checks come first: if these fail, the
	// per-case numbers are not comparable and per-case output would
	// only obscure the real problem.
	refuseCores(fail, "parallel speedup", baseline.GOMAXPROCS, current.GOMAXPROCS)
	// GOMAXPROCS can be set above the physical core count, which
	// oversubscribes a small host instead of parallelizing on it; the
	// recorded num_cpu catches that taint.
	if baseline.NumCPU < 4 {
		fail("baseline was recorded on a host with %d CPU(s) (num_cpu): parallel arms time-slice instead of running concurrently on fewer than 4 cores and must never serve as a baseline; re-record on a host with >=4 CPUs", baseline.NumCPU)
	}
	if current.NumCPU < 4 {
		fail("current report was recorded on a host with %d CPU(s) (num_cpu): re-run the benchmark on a host with >=4 CPUs", current.NumCPU)
	}
	if len(problems) > 0 {
		return problems
	}

	baseByKey := map[string]benchCase{}
	for _, c := range baseline.Cases {
		baseByKey[c.key()] = c
	}
	curByKey := map[string]benchCase{}

	bestSpeedup := 0.0
	for _, cur := range current.Cases {
		curByKey[cur.key()] = cur
		if !cur.Identical {
			fail("%s: parallel result differs from sequential (identical=false)", cur.key())
		}
		if cur.SequentialMS >= cfg.MinSpeedupFloorMS && cur.Speedup > bestSpeedup {
			bestSpeedup = cur.Speedup
		}
		base, ok := baseByKey[cur.key()]
		if !ok {
			continue // new case, nothing to regress against
		}
		if floor := base.Speedup * (1 - cfg.SpeedupTolerance); cur.Speedup < floor {
			fail("%s: speedup regressed to %.2fx from baseline %.2fx (floor %.2fx at tolerance %.0f%%)",
				cur.key(), cur.Speedup, base.Speedup, floor, cfg.SpeedupTolerance*100)
		}
		if limit := base.ParallelAllocsPerEval + cfg.AllocSlack; cur.ParallelAllocsPerEval > limit {
			fail("%s: parallel allocs/eval regressed to %.1f from baseline %.1f (limit %.1f)",
				cur.key(), cur.ParallelAllocsPerEval, base.ParallelAllocsPerEval, limit)
		}
	}
	for _, base := range baseline.Cases {
		if _, ok := curByKey[base.key()]; !ok {
			fail("%s: present in baseline but missing from current report", base.key())
		}
	}
	if cfg.MinSpeedup > 0 && bestSpeedup < cfg.MinSpeedup {
		fail("no case with sequential wall-clock >= %.0fms reached %.1fx speedup (best %.2fx): the parallel engine is not earning its keep",
			cfg.MinSpeedupFloorMS, cfg.MinSpeedup, bestSpeedup)
	}
	return problems
}

// batchReport mirrors the BENCH_batch.json schema written by
// hetgate -batch (cmd/hetgate batchBenchReport). Only the fields the
// gate reads are declared.
type batchReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Backends   int `json:"backends"`
	Items      int `json:"items"`
	Rounds     int `json:"rounds"`

	Batch struct {
		ItemsPerSec float64 `json:"items_per_sec"`
		TTFRMS      float64 `json:"ttfr_ms"`
		TTLRMS      float64 `json:"ttlr_ms"`
		Admissions  int     `json:"admissions"`
		Builds      int     `json:"builds"`
		Errors      int     `json:"errors"`
	} `json:"batch"`
	Sequential struct {
		ItemsPerSec float64 `json:"items_per_sec"`
		Errors      int     `json:"errors"`
	} `json:"sequential"`

	Speedup float64 `json:"speedup"`
}

type batchGateConfig struct {
	// SpeedupTolerance is the fractional speedup regression allowed
	// relative to baseline (shared with search mode).
	SpeedupTolerance float64
	// MinSpeedup is the absolute batch/sequential speedup the current
	// report must reach (0 disables).
	MinSpeedup float64
	// TTFRFrac is the largest allowed time-to-first-result as a
	// fraction of time-to-last-result (0 disables). Streaming means
	// the first answer lands well before the job ends.
	TTFRFrac float64
}

// diffBatch returns every gate violation between a baseline and current
// BENCH_batch.json, in a stable order. Empty means the gate passes.
func diffBatch(baseline, current batchReport, cfg batchGateConfig) []string {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Same recording-environment refusals as search mode, for the same
	// reason: a single-core recording serializes the backends, so the
	// batch arm's fan-out measures nothing.
	refuseCores(fail, "fan-out speedup", baseline.GOMAXPROCS, current.GOMAXPROCS)
	if len(problems) > 0 {
		return problems
	}

	if current.Items != baseline.Items || current.Rounds != baseline.Rounds || current.Backends != baseline.Backends {
		fail("job shape changed: baseline %d items x %d rounds on %d backends vs current %d x %d on %d — re-record the baseline instead of comparing different workloads",
			baseline.Items, baseline.Rounds, baseline.Backends, current.Items, current.Rounds, current.Backends)
		return problems
	}
	if current.Batch.Errors > 0 || current.Sequential.Errors > 0 {
		fail("current report has errors (batch=%d sequential=%d): throughput of a failing run is meaningless",
			current.Batch.Errors, current.Sequential.Errors)
		return problems
	}

	if cfg.MinSpeedup > 0 && current.Speedup < cfg.MinSpeedup {
		fail("batch speedup %.2fx below the %.1fx amortization contract at %d items: one admission and a shared connection should beat %d sequential requests",
			current.Speedup, cfg.MinSpeedup, current.Items, current.Items)
	}
	if floor := baseline.Speedup * (1 - cfg.SpeedupTolerance); current.Speedup < floor {
		fail("batch speedup regressed to %.2fx from baseline %.2fx (floor %.2fx at tolerance %.0f%%)",
			current.Speedup, baseline.Speedup, floor, cfg.SpeedupTolerance*100)
	}
	if cfg.TTFRFrac > 0 && current.Batch.TTLRMS > 0 {
		if limit := cfg.TTFRFrac * current.Batch.TTLRMS; current.Batch.TTFRMS > limit {
			fail("time-to-first-result %.1fms exceeds %.0f%% of time-to-last %.1fms: results are not streaming ahead of job completion",
				current.Batch.TTFRMS, cfg.TTFRFrac*100, current.Batch.TTLRMS)
		}
	}
	if limit := current.Backends * current.Rounds; current.Batch.Admissions > limit {
		fail("batch admissions %d exceed backends*rounds = %d: items are being admitted individually instead of per sub-batch",
			current.Batch.Admissions, limit)
	}
	if limit := current.Items * current.Rounds; current.Batch.Builds > limit {
		fail("batch builds %d exceed items*rounds = %d: the shared build path is rebuilding items", current.Batch.Builds, limit)
	}
	return problems
}

// kernelRow and kernelReport mirror the BENCH_kernels.json schema
// written by BenchmarkKernels (bench_kernels_test.go). Only the fields
// the gate reads are declared.
type kernelRow struct {
	Kernel    string  `json:"kernel"`
	Dataset   string  `json:"dataset"`
	Class     string  `json:"class"`
	RefNsOp   float64 `json:"ref_ns_op"`
	TunedNsOp float64 `json:"tuned_ns_op"`
	Speedup   float64 `json:"speedup"`
}

func (r kernelRow) key() string { return r.Kernel + "/" + r.Dataset }

type kernelReport struct {
	GOMAXPROCS     int         `json:"gomaxprocs"`
	NumCPU         int         `json:"num_cpu"`
	Kernels        []kernelRow `json:"kernels"`
	GeomeanSpeedup float64     `json:"geomean_speedup"`
}

// geomean recomputes the geometric mean of the row speedups.
func (r kernelReport) geomean() float64 {
	logSum := 0.0
	for _, row := range r.Kernels {
		logSum += math.Log(row.Speedup)
	}
	return math.Exp(logSum / float64(len(r.Kernels)))
}

type kernelGateConfig struct {
	// SpeedupTolerance is the fractional per-kernel speedup regression
	// allowed relative to baseline (shared with search mode).
	SpeedupTolerance float64
	// MinGeomean is the geometric-mean tuned/reference speedup the
	// current report must reach (0 disables).
	MinGeomean float64
}

// diffKernels returns every gate violation between a baseline and
// current BENCH_kernels.json, in a stable order. Kernels mode has no
// recording-environment refusals: each row is the ratio of two
// measurements from the same process on the same machine, so host
// speed and core count cancel — which is also why this gate can run
// on a single-core CI container where the search gate cannot.
func diffKernels(baseline, current kernelReport, cfg kernelGateConfig) []string {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	for _, row := range current.Kernels {
		if row.Speedup <= 0 || row.TunedNsOp <= 0 || row.RefNsOp <= 0 {
			fail("%s: non-positive timing (ref %.0fns, tuned %.0fns, speedup %.2fx): the recording is broken", row.key(), row.RefNsOp, row.TunedNsOp, row.Speedup)
		}
	}
	if len(problems) > 0 {
		return problems
	}

	if recomputed := current.geomean(); math.Abs(recomputed-current.GeomeanSpeedup) > 1e-6*recomputed {
		fail("recorded geomean %.4fx does not match the rows (recomputed %.4fx): the report was edited or truncated", current.GeomeanSpeedup, recomputed)
		return problems
	}
	if cfg.MinGeomean > 0 && current.GeomeanSpeedup < cfg.MinGeomean {
		fail("geomean tuned/reference speedup %.2fx below the %.2fx tuning contract", current.GeomeanSpeedup, cfg.MinGeomean)
	}

	baseByKey := map[string]kernelRow{}
	for _, row := range baseline.Kernels {
		baseByKey[row.key()] = row
	}
	curByKey := map[string]kernelRow{}
	for _, cur := range current.Kernels {
		curByKey[cur.key()] = cur
		base, ok := baseByKey[cur.key()]
		if !ok {
			continue // new kernel or dataset, nothing to regress against
		}
		if floor := base.Speedup * (1 - cfg.SpeedupTolerance); cur.Speedup < floor {
			fail("%s: speedup regressed to %.2fx from baseline %.2fx (floor %.2fx at tolerance %.0f%%)",
				cur.key(), cur.Speedup, base.Speedup, floor, cfg.SpeedupTolerance*100)
		}
	}
	for _, base := range baseline.Kernels {
		if _, ok := curByKey[base.key()]; !ok {
			fail("%s: present in baseline but missing from current report", base.key())
		}
	}
	return problems
}

// partitionParityRow and partitionSimplexRow mirror the
// BENCH_partition.json schema written by BenchmarkPartition
// (bench_partition_test.go). Only the fields the gate reads are
// declared.
type partitionParityRow struct {
	Searcher  string  `json:"searcher"`
	Workload  string  `json:"workload"`
	Dataset   string  `json:"dataset"`
	Evals     int     `json:"evals"`
	ScalarMS  float64 `json:"scalar_ms"`
	VectorMS  float64 `json:"vector_ms"`
	Overhead  float64 `json:"overhead"`
	Identical bool    `json:"identical"`
}

type partitionSimplexRow struct {
	Devices          int     `json:"devices"`
	Workload         string  `json:"workload"`
	Dataset          string  `json:"dataset"`
	Searcher         string  `json:"searcher"`
	WallMS           float64 `json:"wall_ms"`
	Evals            int     `json:"evals"`
	ExhaustiveEvals  int     `json:"exhaustive_evals"`
	ExhaustiveGapPct float64 `json:"exhaustive_gap_pct"`
}

func (r partitionSimplexRow) key() string {
	return fmt.Sprintf("%d/%s/%s", r.Devices, r.Workload, r.Dataset)
}

type partitionReport struct {
	GOMAXPROCS  int                   `json:"gomaxprocs"`
	NumCPU      int                   `json:"num_cpu"`
	Parallelism int                   `json:"parallelism"`
	Parity      partitionParityRow    `json:"parity"`
	Simplex     []partitionSimplexRow `json:"simplex"`
}

type partitionGateConfig struct {
	// OverheadTolerance is the fractional growth of the parity
	// overhead ratio allowed relative to baseline (shared with
	// -speedup-tolerance).
	OverheadTolerance float64
	// MaxOverhead is the absolute cap on the parity vector/scalar
	// wall-clock ratio (0 disables).
	MaxOverhead float64
	// EvalBudget is the evaluation ceiling per simplex row (0
	// disables). Coordinate descent exists to avoid the exhaustive
	// sweep; a descent that approaches sweep-sized eval counts has
	// lost its reason to exist.
	EvalBudget int
	// MaxGapPct is the largest allowed quality gap, in percent above
	// the exhaustive simplex optimum, for rows that recorded a sweep
	// (0 disables).
	MaxGapPct float64
}

// diffPartition returns every gate violation between a baseline and
// current BENCH_partition.json, in a stable order. Empty means the
// gate passes.
func diffPartition(baseline, current partitionReport, cfg partitionGateConfig) []string {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Stricter refusals than search mode: a partition recording is
	// only meaningful when the per-axis evaluations genuinely ran in
	// parallel, so anything under 4 schedulable cores is refused, not
	// just single-core recordings.
	for _, r := range []struct {
		name string
		rep  partitionReport
	}{{"baseline", baseline}, {"current report", current}} {
		switch {
		case r.rep.GOMAXPROCS <= 1:
			fail("%s was recorded at GOMAXPROCS=%d: single-core recordings cannot measure the parallel simplex search; re-record with GOMAXPROCS>=4", r.name, r.rep.GOMAXPROCS)
		case r.rep.GOMAXPROCS < 4:
			fail("%s was recorded at GOMAXPROCS=%d: partition wall-clock assumes GOMAXPROCS>=4", r.name, r.rep.GOMAXPROCS)
		}
		if r.rep.NumCPU < 4 {
			fail("%s was recorded on a host with %d CPU(s) (num_cpu): parallel arms time-slice instead of running concurrently on fewer than 4 cores; re-record on a host with >=4 CPUs", r.name, r.rep.NumCPU)
		}
	}
	if baseline.GOMAXPROCS != current.GOMAXPROCS {
		fail("gomaxprocs mismatch: baseline %d vs current %d — wall-clock ratios are not comparable across different core counts", baseline.GOMAXPROCS, current.GOMAXPROCS)
	}
	if len(problems) > 0 {
		return problems
	}

	if !current.Parity.Identical {
		fail("parity %s/%s/%s: the 2-device vector search differs from the scalar search (identical=false) — the partition adapter must never change a result",
			current.Parity.Searcher, current.Parity.Workload, current.Parity.Dataset)
	}
	if cfg.MaxOverhead > 0 && current.Parity.Overhead > cfg.MaxOverhead {
		fail("parity overhead %.2fx exceeds the %.2fx cap: the partition adapter is taxing the scalar search",
			current.Parity.Overhead, cfg.MaxOverhead)
	}
	if limit := baseline.Parity.Overhead * (1 + cfg.OverheadTolerance); baseline.Parity.Overhead > 0 && current.Parity.Overhead > limit {
		fail("parity overhead grew to %.2fx from baseline %.2fx (limit %.2fx at tolerance %.0f%%)",
			current.Parity.Overhead, baseline.Parity.Overhead, limit, cfg.OverheadTolerance*100)
	}

	baseByKey := map[string]partitionSimplexRow{}
	for _, r := range baseline.Simplex {
		baseByKey[r.key()] = r
	}
	curByKey := map[string]partitionSimplexRow{}
	for _, cur := range current.Simplex {
		curByKey[cur.key()] = cur
		if cfg.EvalBudget > 0 && cur.Evals > cfg.EvalBudget {
			fail("%s: coordinate descent spent %d evaluations, over the %d budget — it is drifting toward an exhaustive sweep",
				cur.key(), cur.Evals, cfg.EvalBudget)
		}
		if cur.ExhaustiveEvals > 0 {
			if cur.Evals >= cur.ExhaustiveEvals {
				fail("%s: descent used %d evaluations, the exhaustive sweep only %d — no saving", cur.key(), cur.Evals, cur.ExhaustiveEvals)
			}
			if cfg.MaxGapPct > 0 && cur.ExhaustiveGapPct > cfg.MaxGapPct {
				fail("%s: identified partition runs %.1f%% above the exhaustive simplex optimum, over the %.0f%% acceptance bar",
					cur.key(), cur.ExhaustiveGapPct, cfg.MaxGapPct)
			}
		}
	}
	for _, base := range baseline.Simplex {
		if _, ok := curByKey[base.key()]; !ok {
			fail("%s: present in baseline but missing from current report", base.key())
		}
	}
	return problems
}

func (r benchReport) check() error {
	if len(r.Cases) == 0 {
		return errors.New("report has no cases")
	}
	return nil
}

func (r batchReport) check() error {
	if r.Items == 0 || r.Rounds == 0 {
		return errors.New("not a batch bench report (items/rounds missing)")
	}
	return nil
}

func (r kernelReport) check() error {
	if len(r.Kernels) == 0 {
		return errors.New("not a kernel bench report (no kernel rows)")
	}
	return nil
}

func (r partitionReport) check() error {
	if r.Parity.Workload == "" || len(r.Simplex) == 0 {
		return errors.New("not a partition bench report (parity/simplex missing)")
	}
	return nil
}

// load reads a JSON report; check rejects a file of another schema.
func load[T any](path string, check func(T) error) (T, error) {
	var r T
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if err := check(r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// mustLoad is load that exits with status 2 on error.
func mustLoad[T any](path string, check func(T) error) T {
	r, err := load(path, check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	return r
}

func main() {
	mode := flag.String("mode", "search", "report schema to gate: search (BENCH_search.json), batch (BENCH_batch.json), kernels (BENCH_kernels.json) or partition (BENCH_partition.json)")
	baselinePath := flag.String("baseline", "", "baseline report (required)")
	currentPath := flag.String("current", "", "freshly recorded report (required)")
	cfg := gateConfig{}
	flag.Float64Var(&cfg.SpeedupTolerance, "speedup-tolerance", 0.30, "fractional speedup regression allowed vs baseline (both modes)")
	flag.Float64Var(&cfg.AllocSlack, "alloc-slack", 8, "search: absolute parallel allocs-per-eval regression allowed vs baseline")
	flag.Float64Var(&cfg.MinSpeedup, "min-speedup", 1.5, "search: speedup at least one expensive case must reach (0 disables)")
	flag.Float64Var(&cfg.MinSpeedupFloorMS, "min-speedup-floor-ms", 5, "search: sequential wall-clock below which a case is exempt from -min-speedup")
	bcfg := batchGateConfig{}
	flag.Float64Var(&bcfg.MinSpeedup, "batch-min-speedup", 2.0, "batch: absolute batch/sequential speedup the current report must reach (0 disables)")
	flag.Float64Var(&bcfg.TTFRFrac, "ttfr-frac", 0.9, "batch: max time-to-first-result as a fraction of time-to-last (0 disables)")
	kcfg := kernelGateConfig{}
	flag.Float64Var(&kcfg.MinGeomean, "kernels-min-geomean", 1.3, "kernels: geometric-mean tuned/reference speedup the current report must reach (0 disables)")
	pcfg := partitionGateConfig{}
	flag.Float64Var(&pcfg.MaxOverhead, "partition-max-overhead", 1.5, "partition: absolute cap on the 2-device vector/scalar wall-clock ratio (0 disables)")
	flag.IntVar(&pcfg.EvalBudget, "partition-eval-budget", 1000, "partition: evaluation ceiling per simplex search (0 disables)")
	flag.Float64Var(&pcfg.MaxGapPct, "partition-max-gap", 5, "partition: max percent above the exhaustive simplex optimum where a sweep was recorded (0 disables)")
	flag.Parse()
	bcfg.SpeedupTolerance = cfg.SpeedupTolerance
	kcfg.SpeedupTolerance = cfg.SpeedupTolerance
	pcfg.OverheadTolerance = cfg.SpeedupTolerance

	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}

	var problems []string
	var summary string
	switch *mode {
	case "search":
		baseline, current := mustLoad(*baselinePath, benchReport.check), mustLoad(*currentPath, benchReport.check)
		problems = diff(baseline, current, cfg)
		summary = fmt.Sprintf("%d case(s) at gomaxprocs=%d", len(current.Cases), current.GOMAXPROCS)
	case "batch":
		baseline, current := mustLoad(*baselinePath, batchReport.check), mustLoad(*currentPath, batchReport.check)
		problems = diffBatch(baseline, current, bcfg)
		summary = fmt.Sprintf("%d items x %d rounds at %.2fx speedup, ttfr %.1fms / ttlr %.1fms",
			current.Items, current.Rounds, current.Speedup, current.Batch.TTFRMS, current.Batch.TTLRMS)
	case "kernels":
		baseline, current := mustLoad(*baselinePath, kernelReport.check), mustLoad(*currentPath, kernelReport.check)
		problems = diffKernels(baseline, current, kcfg)
		summary = fmt.Sprintf("%d kernel row(s) at %.2fx geomean speedup", len(current.Kernels), current.GeomeanSpeedup)
	case "partition":
		baseline, current := mustLoad(*baselinePath, partitionReport.check), mustLoad(*currentPath, partitionReport.check)
		problems = diffPartition(baseline, current, pcfg)
		summary = fmt.Sprintf("parity %.2fx overhead, %d simplex case(s) at gomaxprocs=%d",
			current.Parity.Overhead, len(current.Simplex), current.GOMAXPROCS)
	default:
		fmt.Fprintf(os.Stderr, "benchdiff: unknown -mode %q (want search, batch, kernels or partition)\n", *mode)
		os.Exit(2)
	}

	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d problem(s):\n", len(problems))
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "  -", p)
		}
		os.Exit(1)
	}
	fmt.Printf("benchdiff: ok — %s, no regressions\n", summary)
}
