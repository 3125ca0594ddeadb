package cluster

import (
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// upstreamBuckets are the upper bounds (seconds) of the per-backend
// latency histogram: gateway-observed upstream latency spans coalesced
// cache hits (~ms over loopback) to full estimation runs (seconds).
var upstreamBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Metrics is the gateway's observability surface, exposed at /metrics
// in the Prometheus text exposition format. Labels are backend URLs
// and status codes, both bounded by cluster size.
type Metrics struct {
	reg     obs.Registry
	started time.Time

	upstream  *obs.CounterVec   // backend, code ("err" for transport failures)
	latencies *obs.HistogramVec // backend

	retries, hedges, coalesced *obs.Counter
	deadlines                  *obs.Counter // requests that ran out of budget end to end

	probes    *obs.CounterVec // backend, outcome ("ok"|"fail")
	shed      *obs.CounterVec // backend (429 answers from it)
	degraded  *obs.CounterVec // backend (degraded-but-usable answers)
	transfers *obs.CounterVec // backend, store mode ("skip"|"warm")

	// Scatter-gather batch fan-out: jobs fanned out, items across them,
	// sub-batches per backend, straggler items hedged through the
	// single-item path, and items answered degraded after their shard
	// failed.
	fanoutJobs, fanoutItems, fanoutHedges, fanoutDegraded *obs.Counter
	fanoutSubBatches                                      *obs.CounterVec

	// breakerStates reports live breaker positions at scrape time; set
	// by the Gateway that owns the breakers.
	breakerStates func() map[string]BreakerState
}

// NewMetrics returns an empty gateway metrics registry.
func NewMetrics() *Metrics {
	m := &Metrics{started: time.Now()}
	r := &m.reg
	m.upstream = r.CounterVec("hetgate_upstream_requests_total", "Requests proxied to backends.", "backend", "code")
	m.retries = r.Counter("hetgate_retries_total", "Retry rounds after a failed attempt.")
	m.hedges = r.Counter("hetgate_hedges_total", "Hedged requests fired at fallback replicas.")
	m.coalesced = r.Counter("hetgate_coalesced_total", "Requests coalesced into an identical in-flight upstream call.")
	r.IntFunc("hetgate_shed_total", "Requests shed (HTTP 429) by backends.", "counter",
		func() (int64, bool) { return int64(m.shed.Sum()), true })
	r.IntFunc("hetgate_degraded_total", "Degraded-but-usable answers (stale or fallback) from backends.", "counter",
		func() (int64, bool) { return int64(m.degraded.Sum()), true })
	m.deadlines = r.Counter("hetgate_deadline_exceeded_total", "Client requests that exhausted their deadline budget.")
	m.shed = r.CounterVec("hetgate_shed_by_backend_total", "Requests shed (HTTP 429), by backend.", "backend")
	m.degraded = r.CounterVec("hetgate_degraded_by_backend_total", "Degraded answers, by backend.", "backend")
	m.fanoutJobs = r.Counter("hetgate_fanout_batches_total", "Batch jobs scattered across the ring.")
	m.fanoutItems = r.Counter("hetgate_fanout_items_total", "Items across all fanned-out batch jobs.")
	m.fanoutHedges = r.Counter("hetgate_fanout_hedges_total", "Straggler batch items hedged individually through the single-item path.")
	m.fanoutDegraded = r.Counter("hetgate_fanout_degraded_total", "Batch items answered degraded after their shard failed.")
	m.fanoutSubBatches = r.CounterVec("hetgate_fanout_subbatches_total", "Sub-batches forwarded, by backend.", "backend")
	m.transfers = r.CounterVec("hetgate_store_transfers_total", "Threshold-store transfers observed on backend answers, by mode (skip = probe-verified, warm = warm-started search).", "backend", "mode")
	m.probes = r.CounterVec("hetgate_health_probes_total", "Health-prober outcomes by backend.", "backend", "outcome")
	r.IntVecFunc("hetgate_breaker_state", "Circuit breaker position by backend (0 closed, 1 open, 2 half-open).", "gauge",
		[]string{"backend", "state"}, func() map[string]int64 {
			if m.breakerStates == nil {
				return nil
			}
			out := make(map[string]int64)
			for b, st := range m.breakerStates() {
				out[b+"\x00"+st.String()] = int64(st)
			}
			return out
		})
	r.GaugeFunc("hetgate_uptime_seconds", "Seconds since the gateway started.", func() float64 { return time.Since(m.started).Seconds() })
	m.latencies = r.Histograms("hetgate_upstream_duration_seconds", "Upstream latency by backend.", "backend", obs.NewHistogramVec(upstreamBuckets))
	return m
}

// recordUpstream records one proxied request to backend with the given
// status code (0 for a transport error) and its gateway-observed
// latency.
func (m *Metrics) recordUpstream(backend string, code int, elapsed time.Duration) {
	label := "err"
	if code > 0 {
		label = strconv.Itoa(code)
	}
	m.upstream.With(backend, label).Inc()
	m.latencies.Observe(backend, elapsed.Seconds())
}

// StoreTransferCounts returns the transfer totals summed over backends
// (tests, bench).
func (m *Metrics) StoreTransferCounts() (skips, warms uint64) {
	for k, v := range m.transfers.Values() {
		if strings.HasSuffix(k, "\x00skip") {
			skips += v
		} else if strings.HasSuffix(k, "\x00warm") {
			warms += v
		}
	}
	return skips, warms
}

// FanoutCounts returns the batch fan-out totals (tests, bench).
func (m *Metrics) FanoutCounts() (jobs, items, hedges, degraded uint64) {
	return m.fanoutJobs.Value(), m.fanoutItems.Value(), m.fanoutHedges.Value(), m.fanoutDegraded.Value()
}

// Counts returns the retry/hedge/coalesce totals (tests, bench).
func (m *Metrics) Counts() (retries, hedges, coalesced uint64) {
	return m.retries.Value(), m.hedges.Value(), m.coalesced.Value()
}

// ResilienceCounts returns the shed/degraded/deadline totals summed
// over backends (tests, bench).
func (m *Metrics) ResilienceCounts() (shed, degraded, deadlines uint64) {
	return m.shed.Sum(), m.degraded.Sum(), m.deadlines.Value()
}

// WriteTo renders the registry in the Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) { return m.reg.WriteTo(w) }
