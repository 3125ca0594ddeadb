package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/store"
)

// StoreHeader marks responses whose threshold came through the
// hetstore transfer path, so the gateway can count transfer rates per
// backend without parsing bodies: "skip" for a probe-verified
// transfer, "warm" for a warm-started search.
const StoreHeader = "X-Hetserve-Store"

// FeaturesHeader carries an input's structural feature vector in
// store.Features wire form. On responses hetserve stamps the features
// it computed; on requests it is an advisory hint (a client or
// gateway that already knows the features of an upload saves the
// server the recomputation — the hint only steers the store lookup,
// never the estimate itself).
const FeaturesHeader = "X-Het-Features"

// storeMeta accumulates what the transfer path learned about a
// request, to be folded into the response.
type storeMeta struct {
	features    store.Features
	hasFeatures bool
	hit         bool
	n           store.Neighbor // the transfer source; a hit warm-starts the search
	// warmSeed is the warm window's center in *sample* threshold
	// space, used to judge whether the warm search stayed interior.
	warmSeed float64
}

// featuresHint parses an advisory features hint. The hint only steers
// the store lookup, so a malformed one is ignored rather than
// rejected.
func (s *Server) featuresHint(v string) *store.Features {
	if v == "" || s.store == nil {
		return nil
	}
	f, err := store.ParseFeatures(v)
	if err != nil {
		return nil
	}
	return &f
}

// featuresOf returns the structural features of a built workload,
// preferring the request's advisory hint. Dataset features are cached:
// the replica population is fixed, so the O(nnz) scan runs once per
// (workload, dataset).
func (s *Server) featuresOf(req *request, cw core.Sampled) (store.Features, bool) {
	if req.hint != nil {
		return *req.hint, true
	}
	cacheable := req.body == nil
	fkey := req.workload + "|" + req.key
	if cacheable {
		s.featMu.Lock()
		f, ok := s.feats[fkey]
		s.featMu.Unlock()
		if ok {
			return f, true
		}
	}
	f, ok := store.FeaturesOf(cw)
	if !ok {
		return store.Features{}, false
	}
	if cacheable {
		s.featMu.Lock()
		s.feats[fkey] = f
		s.featMu.Unlock()
	}
	return f, true
}

// storeLookup consults the threshold store for a transferable
// neighbor, under its own span. A miss leaves meta.hit false.
func (s *Server) storeLookup(ctx context.Context, req *request, cw core.Sampled) (meta storeMeta) {
	f, ok := s.featuresOf(req, cw)
	if !ok {
		return meta
	}
	meta.features, meta.hasFeatures = f, true
	_, span := obs.StartSpan(ctx, "store.lookup")
	defer span.Finish()
	n, hit := s.store.Lookup(req.workload, s.platformSig, req.key, f)
	span.SetAttr("hit", strconv.FormatBool(hit))
	if !hit {
		return meta
	}
	s.metrics.StoreHit()
	span.SetAttr("neighbor", n.Entry.Key)
	span.SetAttr("distance", fmt.Sprintf("%.4f", n.Distance))
	span.SetAttr("drifted", strconv.FormatBool(n.Drifted))
	meta.hit, meta.n = true, n
	meta.warmSeed = n.Entry.Threshold
	if inv, ok := cw.(core.InverseExtrapolator); ok {
		meta.warmSeed = inv.InverseExtrapolate(n.Entry.Threshold)
	}
	return meta
}

// stampStore folds a store lookup into a response.
func stampStore(resp *EstimateResponse, meta storeMeta) {
	resp.Features = meta.features.String()
	if meta.hit {
		resp.StoreHit = true
		resp.StoreNeighbor = meta.n.Entry.Key
		resp.StoreDistance = meta.n.Distance
	}
}

// probeTransfer verifies a transferred threshold with a cheap probe:
// full-input evaluations at the threshold and one grid step to either
// side, admitted at probeCost (not the full search cost — under
// overload the probe fits where a fresh Identify would shed). The
// transfer is accepted when the threshold's cost is within the store's
// tolerance of the best probed point. Returns (resp, true) on accept;
// (nil, false) means the caller should fall back to the warm path.
// Only context/evaluation failures surface as errors. admitted callers
// (batch items, whose job already holds aggregate admission) skip the
// probe's own admission so one item is never charged twice.
func (s *Server) probeTransfer(ctx context.Context, req *request, cw core.Sampled, meta storeMeta, admitted bool) (*EstimateResponse, bool, error) {
	_, span := obs.StartSpan(ctx, "store.probe")
	defer span.Finish()
	if !admitted {
		err := s.admission.Acquire(ctx, probeCost)
		if err != nil {
			if errors.Is(err, resilience.ErrOverloaded) {
				// The probe itself was shed: fall through to the warm
				// path, whose full-cost admission resolves the overload
				// honestly (shed → degrade upstream).
				span.SetAttr("shed", "true")
				return nil, false, nil
			}
			span.RecordError(err)
			return nil, false, fmt.Errorf("waiting for probe admission: %w", err)
		}
		defer s.admission.Release(probeCost)
	}

	s.metrics.StoreProbe()
	lo, hi := core.RangeOf(cw, core.Config{})
	t := min(max(meta.n.Entry.Threshold, lo), hi)
	span.SetAttr("threshold", fmt.Sprintf("%.2f", t))

	// Probe points: the transferred threshold ± one grid step,
	// clamped and deduplicated.
	points := []float64{t}
	if t-1 >= lo {
		points = append(points, t-1)
	}
	if t+1 <= hi {
		points = append(points, t+1)
	}
	costs := make([]time.Duration, len(points))
	for i, p := range points {
		if err := ctx.Err(); err != nil {
			span.RecordError(err)
			return nil, false, err
		}
		s.metrics.EvalStarted()
		d, err := cw.Evaluate(p)
		s.metrics.EvalDone()
		if err != nil {
			err = fmt.Errorf("probing %s at %.2f: %w", cw.Name(), p, err)
			span.RecordError(err)
			return nil, false, err
		}
		costs[i] = d
	}
	others := make([]int64, 0, len(costs)-1)
	var overhead time.Duration
	for _, c := range costs[1:] {
		others = append(others, int64(c))
		overhead += c
	}
	key := meta.n.Entry.Key
	if !s.store.AcceptProbe(int64(costs[0]), others...) {
		span.SetAttr("accepted", "false")
		s.metrics.StoreReject()
		if s.store.Observe(req.workload, key, false) {
			s.scheduleReestimate(req.workload, key)
		}
		return nil, false, nil
	}
	span.SetAttr("accepted", "true")
	s.metrics.StoreSkip()
	s.store.Observe(req.workload, key, true)
	// The probe verified this threshold on *this* input at full
	// scale: record it under the input's own key so future neighbors
	// can transfer from it directly.
	s.store.Put(req.workload, req.key, s.platformSig, meta.features, t, int64(costs[0]))

	resp := s.respond(req, outcome{threshold: t, evals: len(points), identify: overhead, run: costs[0]})
	resp.Transferred = true
	stampStore(&resp, meta)
	s.cache.Put(req.cacheKey(), cacheEntry{resp: resp, at: time.Now()})
	return &resp, true, nil
}

// observeWarmOutcome feeds a completed warm-started search back into
// the neighbor's confidence: a search that settled in the interior of
// the warm window confirms the transferred threshold's neighborhood;
// one that ran into the window's edge suggests the true optimum lies
// outside, which counts against the neighbor.
func (s *Server) observeWarmOutcome(workload string, meta storeMeta, sampleThreshold float64) {
	const win = core.DefaultWarmWindow
	interior := sampleThreshold > meta.warmSeed-win && sampleThreshold < meta.warmSeed+win
	if s.store.Observe(workload, meta.n.Entry.Key, interior) {
		// Confidence fell below the floor: refresh in the background.
		s.scheduleReestimate(workload, meta.n.Entry.Key)
	}
}

// scheduleReestimate refreshes a store entry's threshold in the
// background: a cold search with the workload's default searcher and
// one repeat, whose verified threshold replaces the entry. It passes
// the same admission and pool gates as foreground traffic, at low
// priority — under load the admission queue sheds it silently and the
// entry waits for a quieter moment. Only dataset-backed entries can
// re-estimate (upload bodies are not retained). Concurrent requests for
// the same entry coalesce.
func (s *Server) scheduleReestimate(workload, storeKey string) {
	name, ok := strings.CutPrefix(storeKey, "dataset:")
	if !ok {
		return
	}
	flightKey := "reestimate|" + workload + "|" + storeKey
	go func() {
		_, _, _ = s.reestimates.Do(flightKey, func() (any, error) {
			s.metrics.StoreReestimate()
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaxTimeout)
			defer cancel()
			req := newRequest()
			req.workload, req.seed, req.repeats = workload, reestimateSeed, 1
			err := s.resolve(req, "")
			if err == nil {
				err = req.setInput(nil, name)
			}
			if err == nil {
				_, err = s.run(ctx, req, modeRefresh, nil)
			}
			if err != nil && !errors.Is(err, resilience.ErrOverloaded) {
				s.logger.Warn("store re-estimation failed",
					slog.String("workload", workload),
					slog.String("input", storeKey),
					slog.Any("err", err))
			}
			return nil, nil
		})
	}()
}

// reestimateSeed is the fixed seed background refreshes use, so
// re-estimated entries are reproducible across replicas.
const reestimateSeed = 1
