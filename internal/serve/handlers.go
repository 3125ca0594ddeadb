package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetsim"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// EstimateResponse is the JSON answer of /estimate. Durations are
// reported both as nanoseconds (machine-readable) and human strings.
type EstimateResponse struct {
	Workload        string  `json:"workload"`
	Input           string  `json:"input"`
	Searcher        string  `json:"searcher"`
	Seed            uint64  `json:"seed"`
	Repeats         int     `json:"repeats"`
	Threshold       float64 `json:"threshold"`
	SampleThreshold float64 `json:"sample_threshold"`
	Evals           int     `json:"evals"`

	// Devices and the partition fields are present on ?devices=N
	// requests: the estimation ran over the N-device simplex instead of
	// the scalar threshold. Partition[i] is device i's share of the
	// work in percent (device 0 is the CPU); NaiveStaticPartition is
	// the static FLOPS-ratio vector the paper's baseline would pick.
	Devices              int            `json:"devices,omitempty"`
	Partition            core.Partition `json:"partition,omitempty"`
	SamplePartition      core.Partition `json:"sample_partition,omitempty"`
	NaiveStaticPartition core.Partition `json:"naive_static_partition,omitempty"`

	RunTimeNS  int64  `json:"run_time_simulated_ns"`
	RunTime    string `json:"run_time_simulated"`
	SampleNS   int64  `json:"sample_cost_ns"`
	IdentifyNS int64  `json:"identify_cost_ns"`
	OverheadNS int64  `json:"overhead_simulated_ns"`
	Overhead   string `json:"overhead_simulated"`
	// OverheadPct is estimation overhead as a percentage of overhead +
	// run time, the paper's "Overhead %" column.
	OverheadPct float64 `json:"overhead_pct"`

	// Cached reports whether this answer came from the result cache.
	Cached bool `json:"cached"`
	// Coalesced reports whether this answer was computed by an
	// identical concurrent request's pipeline run (singleflight).
	Coalesced bool `json:"coalesced"`
	// Stale reports a cache entry older than Config.StaleAfter, served
	// immediately while a background revalidation refreshes it.
	Stale bool `json:"stale,omitempty"`
	// Degraded marks a graceful-degradation answer: the request was
	// shed under overload and answered from a stale cache entry or the
	// NaiveStatic fallback instead of a fresh pipeline run.
	Degraded bool `json:"degraded,omitempty"`

	// StoreHit reports that the threshold store held a structurally
	// similar neighbor within the transfer radius.
	StoreHit bool `json:"store_hit,omitempty"`
	// Transferred marks a probe-verified transfer: Identify was
	// skipped entirely and Threshold is the neighbor's, verified at
	// full scale by the probe.
	Transferred bool `json:"store_transferred,omitempty"`
	// WarmStarted marks an estimate whose Identify window was
	// narrowed around the neighbor's threshold.
	WarmStarted bool `json:"store_warm_started,omitempty"`
	// StoreNeighbor/StoreDistance identify the matched entry.
	StoreNeighbor string  `json:"store_neighbor,omitempty"`
	StoreDistance float64 `json:"store_distance,omitempty"`
	// Features is the input's structural feature vector in wire form
	// (see store.ParseFeatures); present when the store is enabled.
	Features string `json:"features,omitempty"`

	// WallMS is the server-side handling time of this request.
	WallMS float64 `json:"wall_ms"`
}

// DegradedHeader marks degraded responses so the gateway (and clients)
// can count them without parsing the JSON body.
const DegradedHeader = "X-Hetserve-Degraded"

// cacheEntry is what the result cache stores: the response plus its
// birth time, which drives the stale-while-revalidate policy.
type cacheEntry struct {
	resp EstimateResponse
	at   time.Time
}

// stale reports whether a cache entry born at "at" has outlived
// Config.StaleAfter (0 disables staleness).
func (s *Server) stale(at time.Time) bool {
	return s.cfg.StaleAfter > 0 && time.Since(at) > s.cfg.StaleAfter
}

type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	workload := r.URL.Query().Get("workload")
	if workload == "" {
		workload = WorkloadCC
	}
	done := s.metrics.RequestStarted(workload)
	code := http.StatusOK

	resp, err := s.estimate(w, r, start)
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			code = he.code
		} else {
			code = statusFor(err)
		}
		if code == http.StatusGatewayTimeout && errors.Is(err, context.DeadlineExceeded) {
			s.metrics.deadlineExceeded.Inc()
		}
		s.logger.ErrorContext(r.Context(), "estimate failed",
			slog.String("method", r.Method),
			slog.String("workload", workload),
			slog.Int("status", code),
			slog.Any("err", err))
		writeJSON(w, code, errorBody(r.Context(), err))
	} else {
		resp.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		writeJSON(w, http.StatusOK, resp)
	}
	done(code, time.Since(start))
}

// estimate parses the request, consults the cache, and runs the
// pipeline on a miss. start is the request's arrival time: deadline
// budgets count from there, so time spent reading and fingerprinting an
// upload is charged against the budget exactly as the caller
// experiences it.
func (s *Server) estimate(w http.ResponseWriter, r *http.Request, start time.Time) (*EstimateResponse, error) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		return nil, &httpError{code: http.StatusMethodNotAllowed, err: fmt.Errorf("method %s not allowed", r.Method)}
	}
	req, err := s.parseRequest(w, r)
	if err != nil {
		return nil, err
	}

	// Validated before the cache lookup so a malformed ?timeout= or
	// deadline header 400s loudly even when a cached answer exists. A
	// *well-formed but too-small* budget (the 504 below) is deferred
	// until after the lookup: a cache hit answers instantly, which
	// satisfies any budget.
	timeout, terr := s.requestTimeout(r)
	if terr != nil {
		var he *httpError
		if errors.As(terr, &he) && he.code == http.StatusBadRequest {
			return nil, terr
		}
	}

	_, cspan := obs.StartSpan(r.Context(), "cache.lookup")
	resp, hit := s.cached(req)
	cspan.SetAttr("hit", strconv.FormatBool(hit))
	cspan.Finish()
	if hit {
		s.stampStoreHeaders(w, resp)
		return resp, nil
	}

	// Cache miss: a budget too small to fit any work fails fast now
	// (504), before joining a flight it could never wait out.
	if terr != nil {
		return nil, terr
	}

	// Coalesce on the cache key: concurrent identical requests share
	// one pipeline run instead of each burning a worker slot — the LRU
	// only helps after the first completes. Followers inherit the
	// leader's outcome, deadline included; that is the usual
	// singleflight trade and estimation results are request-agnostic.
	v, err, leader := s.flight.Do(req.cacheKey(), func() (any, error) {
		s.metrics.cacheMisses.Inc()
		// Anchored at arrival, not here: with a propagated budget this
		// server must give up strictly before its caller does, even when
		// reading the upload ate a slice of the budget already.
		ctx, cancel := context.WithDeadline(r.Context(), start.Add(timeout))
		defer cancel()
		return s.run(ctx, req, modeRequest, nil)
	})
	if err != nil {
		if errors.Is(err, resilience.ErrOverloaded) {
			if resp, ok := s.degraded(req); ok {
				// The header lets the gateway count degraded answers
				// without parsing bodies.
				w.Header().Set(DegradedHeader, "true")
				return resp, nil
			}
			// No degraded answer available: shed honestly with
			// backpressure advice scaled to the backlog.
			w.Header().Set("Retry-After",
				strconv.Itoa(int(s.admission.RetryAfter().Round(time.Second).Seconds())))
		}
		return nil, err
	}
	fresh := *(v.(*EstimateResponse)) // copy; Coalesced/WallMS are per-request
	if !leader {
		s.metrics.coalesced.Inc()
		fresh.Coalesced = true
		// The pipeline spans live in the leader's trace; mark the
		// follower's server span so the coalescing is visible there too.
		obs.SpanFromContext(r.Context()).SetAttr("coalesced", "true")
	}
	s.stampStoreHeaders(w, &fresh)
	return &fresh, nil
}

// cached answers a request from the result cache. The answer is a copy
// of the entry — Cached, Stale and WallMS are per-request. A stale
// entry is served at once while a background revalidation refreshes it
// (stale-while-revalidate); the refresh goes through the same
// singleflight and admission gates as a foreground miss, so a
// thundering herd of stale hits buys exactly one pipeline run — and
// none at all under overload.
func (s *Server) cached(req *request) (*EstimateResponse, bool) {
	v, hit := s.cache.Get(req.cacheKey())
	if !hit {
		return nil, false
	}
	e := v.(cacheEntry)
	resp := e.resp
	resp.Cached = true
	s.metrics.cacheHits.Inc()
	if s.stale(e.at) {
		s.metrics.staleServed.Inc()
		resp.Stale = true
		s.revalidate(req)
	}
	return &resp, true
}

// parseRequest builds the request an /estimate query describes: the
// knobs from the query string, the input from the POST body (an
// upload) or ?dataset= (a Table II replica). A client (or gateway)
// that already knows an upload's structural features may send them in
// FeaturesHeader.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*request, error) {
	q := r.URL.Query()
	req := newRequest()
	if v := q.Get("workload"); v != "" {
		req.workload = v
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, badRequest("bad seed %q: %v", v, err)
		}
		req.seed = n
	}
	if v := q.Get("repeats"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, badRequest("bad repeats %q (want 1..99)", v)
		}
		req.repeats = n
	}
	// ?devices=N switches the pipeline to N-device partition-vector
	// estimation; without it the scalar threshold is estimated.
	if v := q.Get("devices"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 || n > MaxEstimateDevices {
			return nil, badRequest("bad devices %q (want 2..%d)", v, MaxEstimateDevices)
		}
		req.devices = n
	}
	if err := s.resolve(req, q.Get("searcher")); err != nil {
		return nil, err
	}
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return nil, &httpError{code: http.StatusRequestEntityTooLarge,
					err: fmt.Errorf("upload exceeds %d bytes", s.cfg.MaxUploadBytes)}
			}
			return nil, fmt.Errorf("reading body: %w", err)
		}
		if len(body) == 0 {
			return nil, badRequest("empty POST body; upload a MatrixMarket matrix or GET ?dataset=")
		}
	}
	if err := req.setInput(body, q.Get("dataset")); err != nil {
		return nil, err
	}
	req.hint = s.featuresHint(r.Header.Get(FeaturesHeader))
	return req, nil
}

// stampStoreHeaders surfaces the transfer outcome as response headers
// so the gateway can count per-backend transfer rates without parsing
// bodies. Only freshly computed answers are stamped: a cached copy of
// a transferred response did not transfer anything this time.
func (s *Server) stampStoreHeaders(w http.ResponseWriter, resp *EstimateResponse) {
	if resp.Features != "" {
		w.Header().Set(FeaturesHeader, resp.Features)
	}
	if resp.Cached || resp.Coalesced {
		return
	}
	if resp.Transferred {
		w.Header().Set(StoreHeader, "skip")
	} else if resp.WarmStarted {
		w.Header().Set(StoreHeader, "warm")
	}
}

// degraded builds the graceful-degradation answer for a shed request
// when Config.DegradeOnShed allows one: a (possibly stale) cache entry
// when one exists, otherwise the platform's NaiveStatic split. Both are
// marked "degraded":true.
func (s *Server) degraded(req *request) (*EstimateResponse, bool) {
	if !s.cfg.DegradeOnShed {
		return nil, false
	}
	var resp EstimateResponse
	if v, ok := s.cache.Get(req.cacheKey()); ok {
		// Only a stale entry can reach here — a fresh one was served
		// before admission — but any cached estimate beats a static
		// guess.
		e := v.(cacheEntry)
		resp = e.resp
		resp.Cached = true
		resp.Stale = s.stale(e.at)
	} else {
		// NaiveStatic: the paper's static-split baseline — the
		// platform's relative device speeds decide the split, no
		// sampling at all. Crude, but O(1) and always available. For a
		// partition request the fallback is the FLOPS-ratio vector.
		resp = EstimateResponse{
			Workload: req.workload,
			Input:    req.input,
			Searcher: "naive-static(fallback)",
			Seed:     req.seed,
		}
		if req.devices > 0 {
			resp.Devices = req.devices
			resp.Partition = s.naiveStaticPartition(req)
			resp.NaiveStaticPartition = resp.Partition
		} else {
			resp.Threshold = 100 * s.platform.StaticCPUShare()
		}
	}
	resp.Degraded = true
	s.metrics.degraded.Inc()
	return &resp, true
}

// revalidate refreshes a stale cache entry off the request path. The
// background run is bounded by MaxTimeout, coalesces with any
// in-flight run for the same key, and passes through admission — so
// revalidation never competes unboundedly with foreground traffic.
func (s *Server) revalidate(req *request) {
	r := *req
	r.hint = nil // the refresh recomputes features rather than trust a hint
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaxTimeout)
		defer cancel()
		_, err, _ := s.flight.Do(r.cacheKey(), func() (any, error) {
			s.metrics.cacheMisses.Inc()
			return s.run(ctx, &r, modeRequest, nil)
		})
		if err != nil && !errors.Is(err, resilience.ErrOverloaded) {
			s.logger.Warn("stale revalidation failed",
				slog.String("workload", r.workload),
				slog.String("input", r.input),
				slog.Any("err", err))
		}
	}()
}

// multiPlatform resolves the device inventory for an N-device
// partition request. A configured inventory wins — then its device
// count is the only one the server answers for — otherwise the default
// CPU + (N-1) GPU cascade is built on demand (construction is a few
// struct literals; the build cache keys workloads by the inventory's
// signature, so equal inventories share builds).
func (s *Server) multiPlatform(devices int) (*hetsim.MultiPlatform, error) {
	if s.cfg.MultiPlatform != nil {
		if n := s.cfg.MultiPlatform.Devices(); n != devices {
			return nil, badRequest("devices=%d does not match the configured inventory (%d devices)", devices, n)
		}
		return s.cfg.MultiPlatform, nil
	}
	return hetsim.DefaultMulti(devices - 1), nil
}

// naiveStaticPartition is the FLOPS-ratio share vector for a partition
// request — the NaiveStatic baseline generalized to N devices.
func (s *Server) naiveStaticPartition(req *request) core.Partition {
	if req.mp != nil {
		return core.Partition(req.mp.StaticShares())
	}
	cpu := 100 * s.platform.StaticCPUShare()
	return core.Partition{cpu, 100 - cpu}
}

// admit acquires admission cost units, under a span; the returned
// func releases them.
func (s *Server) admit(ctx context.Context, cost int64) (release func(), err error) {
	_, aspan := obs.StartSpan(ctx, "admission.wait")
	aspan.SetAttr("cost", strconv.FormatInt(cost, 10))
	err = s.admission.Acquire(ctx, cost)
	aspan.RecordError(err)
	aspan.Finish()
	if err != nil {
		if errors.Is(err, resilience.ErrOverloaded) {
			s.metrics.shed.Inc()
			return nil, err
		}
		return nil, fmt.Errorf("waiting for admission: %w", err)
	}
	return func() { s.admission.Release(cost) }, nil
}

// acquireWorker takes a slot from the bounded worker pool, under a
// span. Waiters respect the request deadline, so a client that gives
// up never holds a slot.
func (s *Server) acquireWorker(ctx context.Context) error {
	_, pspan := obs.StartSpan(ctx, "pool.wait")
	err := s.pool.Acquire(ctx)
	pspan.RecordError(err)
	pspan.Finish()
	if err != nil {
		return fmt.Errorf("waiting for worker: %w", err)
	}
	return nil
}

// errorBody renders the JSON error payload, echoing the request's
// correlation ID so a client can quote it when reporting a failure.
func errorBody(ctx context.Context, err error) map[string]string {
	body := map[string]string{"error": err.Error()}
	if id := obs.RequestID(ctx); id != "" {
		body["request_id"] = id
	}
	return body
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		Group string `json:"group"`
		N     int    `json:"n"`
		NNZ   int    `json:"nnz"`
	}
	var out []entry
	for _, d := range datasets.All() {
		out = append(out, entry{Name: d.Name, Group: d.Group, N: d.N(), NNZ: d.NNZ()})
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
