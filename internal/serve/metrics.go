package serve

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// latencyBuckets are the upper bounds (seconds) of the request latency
// histogram, chosen to straddle both cache hits (~µs) and full
// estimation runs on Table II replicas (~ms to seconds).
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Metrics is the daemon's observability surface, exposed at /metrics
// in the Prometheus text exposition format. Everything is
// low-cardinality by construction: labels are the workload names, HTTP
// status codes and batch-item outcomes.
type Metrics struct {
	reg obs.Registry

	inFlight      atomic.Int64
	evalsInFlight atomic.Int64
	started       time.Time

	requests  *obs.CounterVec   // workload, code
	latencies *obs.HistogramVec // workload

	cacheHits, cacheMisses, coalesced *obs.Counter
	buildHits, buildMisses            *obs.Counter

	// Overload protection (internal/resilience).
	shed, degraded, staleServed, deadlineExceeded *obs.Counter

	// Batch (/estimate-batch): accepted jobs, items carried by them,
	// jobs rejected before any work, and terminal item outcomes
	// (refined, cached, shed, deadline, invalid, error).
	batchJobs, batchItems, batchRejected *obs.Counter
	batchOutcomes                        *obs.CounterVec

	// Threshold store (hetstore).
	storeHits, storeWarmStarts, storeSkips      *obs.Counter
	storeProbes, storeRejects, storeReestimates *obs.Counter
	evalsTotal                                  *obs.Counter

	// Scrape-time callbacks set by the Server; a nil callback leaves its
	// series out (storeStats is nil when the store is disabled).
	cacheStats     func() CacheStats
	storeStats     func() int
	admissionStats func() AdmissionStats
}

// AdmissionStats is a point-in-time snapshot of the admission
// controller, rendered at /metrics.
type AdmissionStats struct {
	QueueDepth int
	CostInUse  int64
	CostLimit  int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	m := &Metrics{started: time.Now()}
	r := &m.reg
	m.requests = r.CounterVec("hetserve_requests_total", "Completed estimation requests.", "workload", "code")
	m.cacheHits = r.Counter("hetserve_cache_hits_total", "Estimations served from the result cache.")
	m.cacheMisses = r.Counter("hetserve_cache_misses_total", "Estimations that ran the sampling pipeline.")
	r.GaugeFunc("hetserve_cache_hit_ratio", "Cache hits over all lookups.", m.CacheHitRatio)
	m.coalesced = r.Counter("hetserve_coalesced_total", "Estimations coalesced into an identical in-flight pipeline run.")
	r.IntFunc("hetserve_cache_entries", "Result-cache entries currently held.", "gauge",
		scrape(&m.cacheStats, func(cs CacheStats) int64 { return int64(cs.Len) }))
	r.IntFunc("hetserve_cache_evictions_total", "Result-cache entries evicted under capacity pressure.", "counter",
		scrape(&m.cacheStats, func(cs CacheStats) int64 { return int64(cs.Evictions) }))
	m.buildHits = r.Counter("hetserve_workload_build_hits_total", "Workload constructions served from the build cache.")
	m.buildMisses = r.Counter("hetserve_workload_build_misses_total", "Workload constructions that parsed and profiled the input.")
	m.shed = r.Counter("hetserve_shed_total", "Requests shed by admission control (429 or degraded fallback).")
	m.degraded = r.Counter("hetserve_degraded_total", "Graceful-degradation answers served in place of shed requests.")
	m.staleServed = r.Counter("hetserve_stale_served_total", "Stale cache entries served while revalidating in the background.")
	m.deadlineExceeded = r.Counter("hetserve_deadline_exceeded_total", "Requests that ran out of their (propagated) deadline budget.")
	m.batchJobs = r.Counter("hetserve_batch_jobs_total", "Accepted /estimate-batch jobs.")
	m.batchItems = r.Counter("hetserve_batch_items_total", "Items carried by accepted batch jobs.")
	m.batchRejected = r.Counter("hetserve_batch_rejected_total", "Batch jobs rejected before any work (bad manifest or over limits).")
	m.batchOutcomes = r.CounterVec("hetserve_batch_item_outcomes_total", "Terminal batch-item outcomes.", "outcome")
	m.storeHits = r.Counter("hetserve_store_hits_total", "Store lookups that found a transferable neighbor.")
	m.storeWarmStarts = r.Counter("hetserve_store_warm_starts_total", "Searches warm-started from a store neighbor.")
	m.storeSkips = r.Counter("hetserve_store_skips_total", "Identify phases skipped via probe-verified transfer.")
	m.storeProbes = r.Counter("hetserve_store_probes_total", "Transfer-verification probes attempted.")
	m.storeRejects = r.Counter("hetserve_store_rejects_total", "Probes that rejected the transferred threshold.")
	m.storeReestimates = r.Counter("hetserve_store_reestimates_total", "Background re-estimations of store entries.")
	r.IntFunc("hetserve_store_entries", "Threshold-store entries currently held.", "gauge",
		scrape(&m.storeStats, func(n int) int64 { return int64(n) }))
	r.IntFunc("hetserve_admission_queue_depth", "Requests waiting for admission.", "gauge",
		scrape(&m.admissionStats, func(as AdmissionStats) int64 { return int64(as.QueueDepth) }))
	r.IntFunc("hetserve_admission_cost_in_flight", "Estimated evaluation cost currently admitted.", "gauge",
		scrape(&m.admissionStats, func(as AdmissionStats) int64 { return as.CostInUse }))
	r.IntFunc("hetserve_admission_cost_limit", "Admission capacity in evaluation-cost units.", "gauge",
		scrape(&m.admissionStats, func(as AdmissionStats) int64 { return as.CostLimit }))
	r.IntFunc("hetserve_in_flight_requests", "Requests currently being handled.", "gauge",
		func() (int64, bool) { return m.inFlight.Load(), true })
	r.IntFunc("hetserve_evaluations_in_flight", "Threshold evaluations currently executing across all pipelines.", "gauge",
		func() (int64, bool) { return m.evalsInFlight.Load(), true })
	m.evalsTotal = r.Counter("hetserve_evaluations_total", "Threshold evaluations performed since start.")
	r.GaugeFunc("hetserve_uptime_seconds", "Seconds since the daemon started.", func() float64 { return time.Since(m.started).Seconds() })
	m.latencies = r.Histograms("hetserve_request_duration_seconds", "Request latency by workload.", "workload", obs.NewHistogramVec(latencyBuckets))
	return m
}

// scrape reads one integer from a Server-set callback at scrape time;
// while *fn is nil the series is left out.
func scrape[S any](fn *func() S, f func(S) int64) func() (int64, bool) {
	return func() (int64, bool) {
		if *fn == nil {
			return 0, false
		}
		return f((*fn)()), true
	}
}

// RequestStarted increments the in-flight gauge; the returned func
// decrements it and records the terminal status and latency.
func (m *Metrics) RequestStarted(workload string) func(code int, elapsed time.Duration) {
	m.inFlight.Add(1)
	return func(code int, elapsed time.Duration) {
		m.inFlight.Add(-1)
		m.requests.With(workload, strconv.Itoa(code)).Inc()
		m.latencies.Observe(workload, elapsed.Seconds())
	}
}

// BatchCounts returns the batch totals and a copy of the per-outcome
// item counts (tests).
func (m *Metrics) BatchCounts() (jobs, items, rejected uint64, outcomes map[string]uint64) {
	return m.batchJobs.Value(), m.batchItems.Value(), m.batchRejected.Value(), m.batchOutcomes.Values()
}

// StoreCounts returns the store counter totals (tests).
func (m *Metrics) StoreCounts() (hits, warmStarts, skips, probes, rejects, reestimates uint64) {
	return m.storeHits.Value(), m.storeWarmStarts.Value(), m.storeSkips.Value(),
		m.storeProbes.Value(), m.storeRejects.Value(), m.storeReestimates.Value()
}

// ResilienceCounts returns the shed/degraded/stale/deadline totals
// (tests).
func (m *Metrics) ResilienceCounts() (shed, degraded, staleServed, deadlineExceeded uint64) {
	return m.shed.Value(), m.degraded.Value(), m.staleServed.Value(), m.deadlineExceeded.Value()
}

// BuildCounts returns the build-cache hit/miss totals (tests).
func (m *Metrics) BuildCounts() (hits, misses uint64) {
	return m.buildHits.Value(), m.buildMisses.Value()
}

// EvalStarted implements core.EvalObserver.
func (m *Metrics) EvalStarted() {
	m.evalsInFlight.Add(1)
	m.evalsTotal.Inc()
}

// EvalDone implements core.EvalObserver.
func (m *Metrics) EvalDone() { m.evalsInFlight.Add(-1) }

// EvalsInFlight returns the number of threshold evaluations currently
// executing (tests).
func (m *Metrics) EvalsInFlight() int64 { return m.evalsInFlight.Load() }

// EvalsTotal returns the lifetime threshold-evaluation count (tests).
func (m *Metrics) EvalsTotal() uint64 { return m.evalsTotal.Value() }

// CacheCounts returns the hit/miss/coalesce totals (tests).
func (m *Metrics) CacheCounts() (hits, misses, coalesced uint64) {
	return m.cacheHits.Value(), m.cacheMisses.Value(), m.coalesced.Value()
}

// CacheHitRatio returns hits / (hits + misses), or 0 before any lookup.
func (m *Metrics) CacheHitRatio() float64 {
	hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// InFlight returns the current in-flight request count.
func (m *Metrics) InFlight() int64 { return m.inFlight.Load() }

// WriteTo renders the registry in the Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) { return m.reg.WriteTo(w) }
