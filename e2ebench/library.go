package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetcc"
	"repro/internal/hetscale"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
	"repro/internal/mmio"
	"repro/internal/sparse"
)

// repeats and the searchers below are hetserve's request defaults.
const repeats = 3

func searcherFor(workload string) core.Searcher {
	switch workload {
	case "spmm":
		return core.RaceThenFine{Window: 4}
	case "scalefree":
		return core.GradientDescent{}
	}
	return core.CoarseToFine{}
}

// inputKey names one estimation input: a dataset or an upload, under
// one workload, as a scalar threshold (devices 0) or a partition.
type inputKey struct {
	dataset  string
	upload   int
	workload string
	devices  int
}

func (k inputKey) String() string {
	in := k.dataset
	if in == "" {
		in = "upload" + strconv.Itoa(k.upload)
	}
	if k.devices > 0 {
		return fmt.Sprintf("%s/%s/devices=%d", k.workload, in, k.devices)
	}
	return k.workload + "/" + in
}

// reference is the library's own view of one input: the workload built
// through the public constructors, its threshold range, the simulated
// time of every answer checked so far, and (when asked for) the
// exhaustive optimum.
type reference struct {
	scalar core.Sampled
	part   core.SampledPartition
	lo, hi float64

	mu    sync.Mutex
	times map[string]time.Duration

	optOnce sync.Once
	opt     time.Duration
	optErr  error
}

// library builds workloads for a plan's inputs exactly as hetserve
// does, from the same replicas and upload bytes, without going through
// the program's serving code.
type library struct {
	plan     *plan
	platform *hetsim.Platform
	multi    *hetsim.MultiPlatform

	mu     sync.Mutex
	mats   map[int]*sparse.CSR
	graphs map[int]*graph.Graph
	refs   map[inputKey]*reference
}

func newLibrary(p *plan) *library {
	return &library{
		plan:     p,
		platform: hetsim.Default(),
		multi:    hetsim.DefaultMulti(2),
		mats:     map[int]*sparse.CSR{},
		graphs:   map[int]*graph.Graph{},
		refs:     map[inputKey]*reference{},
	}
}

// parseUpload parses an upload body the way hetserve does.
func parseUpload(body []byte) (*sparse.CSR, error) {
	coo, err := mmio.Read(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return sparse.FromCOO(coo)
}

// inputs returns the matrix and graph views of k's input. Dataset
// graphs are the replicas' own graph views; uploads are viewed as
// graphs through graph.FromCSR, as hetserve views them.
func (l *library) inputs(k inputKey) (*sparse.CSR, *graph.Graph, error) {
	if k.dataset != "" {
		d, err := datasets.ByName(k.dataset)
		if err != nil {
			return nil, nil, err
		}
		m, err := d.Matrix()
		if err != nil {
			return nil, nil, err
		}
		g, err := d.Graph()
		return m, g, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	m, ok := l.mats[k.upload]
	if !ok {
		var err error
		if m, err = parseUpload(l.plan.uploads[k.upload].body); err != nil {
			return nil, nil, fmt.Errorf("parsing %s: %w", l.plan.uploads[k.upload].name, err)
		}
		l.mats[k.upload] = m
	}
	g, ok := l.graphs[k.upload]
	if !ok {
		var err error
		if g, err = graph.FromCSR(m); err != nil {
			return nil, nil, err
		}
		l.graphs[k.upload] = g
	}
	return m, g, nil
}

// build constructs k's workload through the public constructors.
func (l *library) build(k inputKey) (core.Sampled, core.SampledPartition, error) {
	m, g, err := l.inputs(k)
	if err != nil {
		return nil, nil, err
	}
	name := k.String()
	if k.devices >= 3 {
		switch k.workload {
		case "cc":
			return nil, hetcc.NewMultiWorkload(name, g, hetcc.NewMultiAlgorithm(l.multi)), nil
		case "spmm":
			w, err := hetspmm.NewMultiWorkload(name, m, hetspmm.NewMultiAlgorithm(l.multi))
			return nil, w, err
		}
		return nil, nil, fmt.Errorf("%s has no partition workload", k.workload)
	}
	switch k.workload {
	case "cc":
		return hetcc.NewWorkload(name, g, hetcc.NewAlgorithm(l.platform)), nil, nil
	case "spmm":
		w, err := hetspmm.NewWorkload(name, m, hetspmm.NewAlgorithm(l.platform))
		return w, nil, err
	case "scalefree":
		w, err := hetscale.NewWorkload(name, m, hetscale.NewAlgorithm(l.platform))
		return w, nil, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q", k.workload)
}

// ref returns k's reference, building its workload on first use.
func (l *library) ref(k inputKey) (*reference, error) {
	l.mu.Lock()
	r, ok := l.refs[k]
	l.mu.Unlock()
	if ok {
		return r, nil
	}
	scalar, part, err := l.build(k)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", k, err)
	}
	r = &reference{scalar: scalar, part: part, lo: 0, hi: 100, times: map[string]time.Duration{}}
	if rg, ok := scalar.(core.Ranger); ok {
		r.lo, r.hi = rg.ThresholdRange()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.refs[k]; ok {
		return prev, nil
	}
	l.refs[k] = r
	return r, nil
}

func partitionKey(p core.Partition) string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = strconv.FormatUint(math.Float64bits(s), 16)
	}
	return strings.Join(parts, ",")
}

// timeAt is the simulated full-input run time at an answer's threshold
// or partition, memoized per answer value.
func (r *reference) timeAt(threshold float64, part core.Partition) (time.Duration, error) {
	key := strconv.FormatUint(math.Float64bits(threshold), 16)
	if r.part != nil {
		key = partitionKey(part)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.times[key]; ok {
		return d, nil
	}
	var (
		d   time.Duration
		err error
	)
	if r.part != nil {
		d, err = r.part.EvaluatePartition(part)
	} else {
		d, err = r.scalar.Evaluate(threshold)
	}
	if err != nil {
		return 0, err
	}
	r.times[key] = d
	return d, nil
}

// hasOptimum reports whether the exhaustive reference is affordable:
// the 3-device cc simplex takes 5,151 full-input evaluations of up to
// 13 ms each, so those answers are left out of regret_pct.
func (k inputKey) hasOptimum() bool { return !(k.devices >= 3 && k.workload == "cc") }

// optimum is the exhaustive best simulated time on the full input:
// core.ExhaustiveBest for thresholds, core.ExhaustiveSimplex for
// partitions.
func (r *reference) optimum(ctx context.Context) (time.Duration, error) {
	r.optOnce.Do(func() {
		if r.part != nil {
			res, err := core.ExhaustiveSimplex{}.SearchPartition(core.WithParallelism(ctx, 1), r.part, 0, 100)
			r.opt, r.optErr = res.BestTime, err
			return
		}
		res, err := core.ExhaustiveBest(ctx, r.scalar, core.Config{Parallelism: 1})
		r.opt, r.optErr = res.BestTime, err
	})
	return r.opt, r.optErr
}

// libEstimate is one estimate computed through the library, as
// hetserve computes a fresh answer at P=1.
type libEstimate struct {
	threshold float64
	partition core.Partition
	evals     int
	runTime   time.Duration
	elapsed   time.Duration // estimate plus the full-input evaluation
}

func (r *reference) estimate(ctx context.Context, workload string, seed uint64) (libEstimate, error) {
	cfg := core.Config{Searcher: searcherFor(workload), Seed: seed, Repeats: repeats, Parallelism: 1}
	t0 := time.Now()
	if r.part != nil {
		est, err := core.EstimatePartition(ctx, r.part, cfg)
		if err != nil {
			return libEstimate{}, err
		}
		rt, err := r.part.EvaluatePartition(est.Partition)
		return libEstimate{partition: est.Partition, evals: est.Evals, runTime: rt, elapsed: time.Since(t0)}, err
	}
	est, err := core.EstimateThreshold(ctx, r.scalar, cfg)
	if err != nil {
		return libEstimate{}, err
	}
	rt, err := r.scalar.Evaluate(est.Threshold)
	return libEstimate{threshold: est.Threshold, evals: est.Evals, runTime: rt, elapsed: time.Since(t0)}, err
}
