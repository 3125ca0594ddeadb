package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetsim"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/workloads"
)

// request is one estimation task — an /estimate query or one
// /estimate-batch item — with its defaults applied and its input
// identified. Every serving path runs a request through run.
type request struct {
	workload string
	input    string // reported name: the dataset, or "upload:<fp>"
	key      string // input identity: "dataset:<name>" or "upload:<fp>"
	body     []byte // uploaded MatrixMarket bytes; nil for datasets
	// devices is 0 for the scalar threshold, N ≥ 2 for an N-device
	// partition vector; mp is the inventory when N ≥ 3.
	devices  int
	mp       *hetsim.MultiPlatform
	searcher core.Searcher
	seed     uint64
	repeats  int
	hint     *store.Features // advisory features steering the store lookup
}

// newRequest returns a request carrying the defaults every caller
// shares: workload cc, seed 42, repeats 3. Callers override what their
// query or manifest sets, then call resolve.
func newRequest() *request {
	return &request{workload: WorkloadCC, seed: 42, repeats: 3}
}

// resolve validates the request's knobs and resolves its searcher (an
// empty name picks the workload's default) and device inventory.
func (s *Server) resolve(req *request, searcher string) error {
	if req.repeats < 1 || req.repeats > 99 {
		return badRequest("bad repeats %d (want 1..99)", req.repeats)
	}
	var err error
	if req.searcher, err = searcherFor(req.workload, searcher); err != nil {
		return badRequest("%v", err)
	}
	if req.devices == 0 {
		return nil
	}
	if req.workload == WorkloadScaleFree {
		return badRequest("workload %q does not support partition vectors (want %s or %s)",
			req.workload, WorkloadCC, WorkloadSpMM)
	}
	// Two devices run core.AsPartition over the scalar workload —
	// bit-identical to the scalar search by construction — so they need
	// no multi-device inventory.
	if req.devices >= 3 {
		req.mp, err = s.multiPlatform(req.devices)
	}
	return err
}

// setInput identifies the request's input: an uploaded body, or else
// the named dataset.
func (req *request) setInput(body []byte, dataset string) error {
	if body != nil {
		fp := Fingerprint(body)
		req.body, req.input, req.key = body, "upload:"+fp, "upload:"+fp
		return nil
	}
	if dataset == "" {
		return badRequest("missing ?dataset= (or POST a MatrixMarket body)")
	}
	if _, err := datasets.ByName(dataset); err != nil {
		return &httpError{code: http.StatusNotFound, err: err}
	}
	req.input, req.key = dataset, "dataset:"+dataset
	return nil
}

// cacheKey identifies the request's answer in the result cache; the
// same key coalesces identical requests in flight.
func (req *request) cacheKey() string {
	return strings.Join([]string{
		req.key, req.workload, req.searcher.Name(),
		strconv.FormatUint(req.seed, 10), strconv.Itoa(req.repeats),
		"d" + strconv.Itoa(req.devices),
	}, "|")
}

// cost is the request's admission cost: the search cost, scaled for
// the simplex on partition requests.
func (req *request) cost() int64 {
	return partitionSearchCost(req.searcher, req.repeats, req.devices)
}

// runMode selects which gates a run passes itself and where its result
// goes.
type runMode int

const (
	// modeRequest is a result-cache miss of /estimate or a stale
	// revalidation: it takes its own admission and worker slot, and
	// caches the answer.
	modeRequest runMode = iota
	// modeItem is one /estimate-batch item: its job already holds the
	// aggregate admission and the worker slot.
	modeItem
	// modeRefresh is a background store re-estimation: a cold search
	// whose verified threshold is recorded in the store, not the cache.
	modeRefresh
)

// run executes the Sample → Identify → Extrapolate pipeline for one
// request. Gate order depends on the path:
//   - cold and partition runs (and refreshes) pass admission at their
//     full search cost, then take a worker slot;
//   - with the threshold store on, the worker slot comes first — it
//     bounds builds and probes as well as searches — and admission is
//     charged per path after the store lookup: probeCost for a verified
//     transfer, a window-scaled cost for a warm-started search, the
//     full cost for a cold one;
//   - batch items run under their job's admission and worker slot.
//
// Batch items pass coarse, which receives the first usable answer
// before any search runs.
func (s *Server) run(ctx context.Context, req *request, mode runMode, coarse func(EstimateResponse)) (*EstimateResponse, error) {
	storePath := s.store != nil && req.devices == 0 && mode != modeRefresh
	if mode != modeItem {
		if !storePath {
			release, err := s.admit(ctx, req.cost())
			if err != nil {
				return nil, err
			}
			defer release()
		}
		if err := s.acquireWorker(ctx); err != nil {
			return nil, err
		}
		defer s.pool.Release()
	}
	w, err := s.build(ctx, req)
	if err != nil {
		return nil, err
	}
	// The store's features-to-threshold transfer is scalar (storePath
	// excludes partition requests): a partition answer is never
	// warm-started from a scalar neighbor.
	var meta storeMeta
	switch {
	case storePath:
		meta = s.storeLookup(ctx, req, w.(core.Sampled))
	case mode == modeRefresh:
		f, ok := s.featuresOf(req, w.(core.Sampled))
		if !ok {
			return nil, fmt.Errorf("workload %s exposes no features", req.workload)
		}
		meta = storeMeta{features: f, hasFeatures: true}
	}
	if coarse != nil {
		coarse(s.coarse(req, meta))
	}
	if meta.hit && s.store.CanSkip(meta.n) {
		resp, ok, err := s.probeTransfer(ctx, req, w.(core.Sampled), meta, mode == modeItem)
		if err != nil || ok {
			return resp, err
		}
		// Probe rejected or shed: fall through to the warm path.
	}
	if storePath && mode == modeRequest {
		cost := req.cost()
		if meta.hit {
			cost = warmSearchCost(req.searcher, req.repeats)
		}
		release, err := s.admit(ctx, cost)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	return s.search(ctx, req, w, meta, mode)
}

// coarse is a batch item's first answer, before any fine sweep: a store
// neighbor's threshold when one is in transfer range, the platform's
// static split otherwise.
func (s *Server) coarse(req *request, meta storeMeta) EstimateResponse {
	resp := EstimateResponse{
		Workload:  req.workload,
		Input:     req.input,
		Seed:      req.seed,
		Repeats:   req.repeats,
		Searcher:  "naive-static(coarse)",
		Threshold: 100 * s.platform.StaticCPUShare(),
	}
	if meta.hit {
		resp.Searcher = "store-warm(coarse)"
		resp.Threshold = meta.n.Entry.Threshold
		resp.StoreHit = true
		resp.StoreNeighbor = meta.n.Entry.Key
		resp.StoreDistance = meta.n.Distance
	}
	return resp
}

// outcome is a finished estimate in the response's terms: a threshold
// for scalar requests, a partition vector for ?devices=N.
type outcome struct {
	threshold, sampleThreshold float64
	partition, samplePartition core.Partition
	evals                      int
	sample, identify, run      time.Duration
}

// search runs the core estimation and the final full-input evaluation
// on a built workload, folds in the store bookkeeping, and caches the
// response. The caller holds admission and a worker slot.
func (s *Server) search(ctx context.Context, req *request, w any, meta storeMeta, mode runMode) (*EstimateResponse, error) {
	var warm *core.WarmStart
	if meta.hit {
		warm = &core.WarmStart{Threshold: meta.n.Entry.Threshold}
		s.metrics.storeWarmStarts.Inc()
	}
	// The metrics registry observes every Evaluate call the pipeline
	// makes — sequential or fanned out — for the in-flight gauge.
	ctx = core.WithEvalObserver(ctx, s.metrics)
	cfg := core.Config{
		Searcher:    req.searcher,
		Seed:        req.seed,
		Repeats:     req.repeats,
		Parallelism: s.cfg.Parallelism,
		WarmStart:   warm,
	}
	var (
		o        outcome
		name     string
		attr, at string
		eval     func() (time.Duration, error)
	)
	if req.devices > 0 {
		pw := w.(core.SampledPartition)
		est, err := core.EstimatePartition(ctx, pw, cfg)
		if err != nil {
			return nil, fmt.Errorf("estimating %s: %w", pw.Name(), err)
		}
		o = outcome{partition: est.Partition, samplePartition: est.SamplePartition,
			evals: est.Evals, sample: est.SampleCost, identify: est.IdentifyCost}
		name, attr, at = pw.Name(), "partition", est.Partition.String()
		eval = func() (time.Duration, error) { return pw.EvaluatePartition(est.Partition) }
	} else {
		cw := w.(core.Sampled)
		est, err := core.EstimateThreshold(ctx, cw, cfg)
		if err != nil {
			return nil, fmt.Errorf("estimating %s: %w", cw.Name(), err)
		}
		o = outcome{threshold: est.Threshold, sampleThreshold: est.SampleThreshold,
			evals: est.Evals, sample: est.SampleCost, identify: est.IdentifyCost}
		name, attr, at = cw.Name(), "threshold", fmt.Sprintf("%.2f", est.Threshold)
		eval = func() (time.Duration, error) { return cw.Evaluate(est.Threshold) }
	}
	_, espan := obs.StartSpan(ctx, "evaluate")
	s.metrics.EvalStarted()
	run, err := eval()
	s.metrics.EvalDone()
	if err != nil {
		err = fmt.Errorf("evaluating %s at %s: %w", name, at, err)
		espan.RecordError(err)
		espan.Finish()
		return nil, err
	}
	espan.SetAttr(attr, at)
	espan.SetAttr("simulated_run", run.String())
	espan.Finish()
	o.run = run

	if s.cfg.Verbose && req.devices == 0 {
		var tr hetsim.Trace
		tr.Add(hetsim.PhaseSample, "host", o.sample)
		tr.Add(hetsim.PhaseIdentify, "host", o.identify)
		tr.Add(hetsim.PhaseCompute, "het", run)
		s.logger.InfoContext(ctx, "estimated",
			slog.String("workload", name),
			slog.Float64("threshold", o.threshold),
			slog.Int("evals", o.evals),
			slog.Int("samples", req.repeats),
			slog.String("trace", tr.String()))
	}

	resp := s.respond(req, o)
	if s.store != nil && meta.hasFeatures {
		stampStore(&resp, meta)
		if meta.hit {
			resp.WarmStarted = true
			s.observeWarmOutcome(req.workload, meta, o.sampleThreshold)
		}
		// Record this input's own verified result so structurally
		// similar future inputs can transfer from it.
		s.store.Put(req.workload, req.key, s.platformSig, meta.features, o.threshold, int64(run))
	}
	if mode != modeRefresh {
		s.cache.Put(req.cacheKey(), cacheEntry{resp: resp, at: time.Now()})
	}
	return &resp, nil
}

// respond assembles the response of a finished estimate, with the
// paper's overhead accounting.
func (s *Server) respond(req *request, o outcome) EstimateResponse {
	overhead := o.sample + o.identify
	resp := EstimateResponse{
		Workload:        req.workload,
		Input:           req.input,
		Searcher:        req.searcher.Name(),
		Seed:            req.seed,
		Repeats:         req.repeats,
		Threshold:       o.threshold,
		SampleThreshold: o.sampleThreshold,
		Evals:           o.evals,
		Partition:       o.partition,
		SamplePartition: o.samplePartition,
		RunTimeNS:       int64(o.run),
		RunTime:         o.run.String(),
		SampleNS:        int64(o.sample),
		IdentifyNS:      int64(o.identify),
		OverheadNS:      int64(overhead),
		Overhead:        overhead.String(),
	}
	if req.devices > 0 {
		resp.Devices = req.devices
		resp.NaiveStaticPartition = s.naiveStaticPartition(req)
	}
	if overhead+o.run > 0 {
		resp.OverheadPct = 100 * float64(overhead) / float64(overhead+o.run)
	}
	return resp
}

// build constructs the request's workload under a "workload.build"
// span (parsing and profiling a large upload is real time a
// whole-request histogram hides). Scalar requests get a core.Sampled,
// partition requests a core.SampledPartition: two devices wrap the
// scalar build in core.AsPartition, three or more build the
// multi-device workload over the request's inventory.
//
// Uploads are parsed per request. Dataset builds go through the build
// cache: the replica population is fixed, so re-parsing the same
// graph or matrix on every result-cache miss is pure waste.
func (s *Server) build(ctx context.Context, req *request) (w any, err error) {
	_, span := obs.StartSpan(ctx, "workload.build")
	defer span.Finish()
	span.SetAttr("workload", req.workload)
	span.SetAttr("input", req.input)
	if req.mp != nil {
		span.SetAttr("devices", strconv.Itoa(req.devices))
	}
	defer func() { span.RecordError(err) }()
	cacheAttr := "bypass"
	if req.body != nil {
		coo, err := mmio.ReadLimited(bytes.NewReader(req.body), s.cfg.MaxUploadBytes)
		if err != nil {
			if errors.Is(err, mmio.ErrTooLarge) {
				return nil, &httpError{code: http.StatusRequestEntityTooLarge, err: err}
			}
			return nil, badRequest("parsing upload: %v", err)
		}
		m, err := sparse.FromCOO(coo)
		if err != nil {
			return nil, badRequest("building matrix: %v", err)
		}
		w, err = workloads.Build(req.workload, req.input, workloads.Matrix{M: m}, s.platform, req.mp)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		// Uploads are still real constructions: count them so batch
		// summaries report build work for upload items too.
		s.metrics.buildMisses.Inc()
	} else {
		var hit bool
		w, hit, err = s.builds.get(s.buildKey(req), func() (any, error) {
			d, err := datasets.ByName(req.input)
			if err != nil {
				return nil, err
			}
			return workloads.Build(req.workload, req.input, d, s.platform, req.mp)
		})
		if err != nil {
			return nil, badRequest("%v", err)
		}
		if hit {
			s.metrics.buildHits.Inc()
			cacheAttr = "hit"
		} else {
			s.metrics.buildMisses.Inc()
			cacheAttr = "miss"
		}
	}
	span.SetAttr("cache", cacheAttr)
	if req.devices == 2 {
		return core.AsPartition(w.(core.Sampled)).(core.SampledPartition), nil
	}
	return w, nil
}
