package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// DefaultSinkCapacity is the span ring-buffer size when a Sink is
// built with capacity <= 0.
const DefaultSinkCapacity = 2048

// stageBuckets are the upper bounds (seconds) of the per-stage latency
// histograms. Pipeline stages span sub-microsecond extrapolations to
// multi-second identify sweeps, so the range is wider than the
// request-latency buckets the registries use.
var stageBuckets = []float64{1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// SpanRecord is one finished span as stored by the Sink and rendered
// at /debug/spans.
type SpanRecord struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Service    string            `json:"service,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Error      string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceRecord groups the stored spans of one trace.
type TraceRecord struct {
	TraceID string       `json:"trace_id"`
	Spans   []SpanRecord `json:"spans"`
}

// Sink collects finished spans into a bounded ring buffer (oldest
// evicted first) and profiles them: every span's duration feeds a
// per-stage histogram keyed by span name. It is safe for concurrent
// use.
type Sink struct {
	mu     sync.Mutex
	cap    int
	ring   []SpanRecord // ring[next] is the next write slot once full
	next   int
	total  uint64 // spans ever observed; total - len(ring) were evicted
	stages *HistogramVec
}

// NewSink returns a Sink holding at most capacity spans
// (DefaultSinkCapacity if <= 0).
func NewSink(capacity int) *Sink {
	if capacity <= 0 {
		capacity = DefaultSinkCapacity
	}
	return &Sink{cap: capacity, stages: NewHistogramVec(stageBuckets)}
}

// Observe records a finished span. Called by Span.Finish.
func (k *Sink) Observe(sp *Span) {
	rec := SpanRecord{
		TraceID:    sp.TraceID.String(),
		SpanID:     sp.SpanID.String(),
		Service:    sp.Service,
		Name:       sp.Name,
		Start:      sp.Start,
		DurationMS: float64(sp.Duration().Microseconds()) / 1e3,
		Error:      sp.Err,
	}
	if sp.Parent.IsValid() {
		rec.ParentID = sp.Parent.String()
	}
	if len(sp.Attrs) > 0 {
		rec.Attrs = make(map[string]string, len(sp.Attrs))
		for a, v := range sp.Attrs {
			rec.Attrs[a] = v
		}
	}
	k.mu.Lock()
	if len(k.ring) < k.cap {
		k.ring = append(k.ring, rec)
	} else {
		k.ring[k.next] = rec
		k.next = (k.next + 1) % k.cap
	}
	k.total++
	k.mu.Unlock()
	k.stages.Observe(sp.Name, sp.Duration().Seconds())
}

// Stats reports stored and total (lifetime) span counts; the
// difference is how many were evicted by the ring.
func (k *Sink) Stats() (stored int, total uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.ring), k.total
}

// Spans returns the stored spans, oldest first.
func (k *Sink) Spans() []SpanRecord {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]SpanRecord, 0, len(k.ring))
	out = append(out, k.ring[k.next:]...)
	out = append(out, k.ring[:k.next]...)
	return out
}

// Traces groups the stored spans by trace, most recently started trace
// first; spans within a trace keep arrival (oldest-first) order.
func (k *Sink) Traces() []TraceRecord {
	spans := k.Spans()
	byTrace := make(map[string]*TraceRecord)
	order := make([]string, 0, 16)
	for _, sp := range spans {
		tr, ok := byTrace[sp.TraceID]
		if !ok {
			tr = &TraceRecord{TraceID: sp.TraceID}
			byTrace[sp.TraceID] = tr
			order = append(order, sp.TraceID)
		}
		tr.Spans = append(tr.Spans, sp)
	}
	out := make([]TraceRecord, 0, len(order))
	// Oldest span arrival decides trace order; reverse for newest-first.
	for i := len(order) - 1; i >= 0; i-- {
		out = append(out, *byTrace[order[i]])
	}
	return out
}

// Handler serves the sink as JSON — the /debug/spans endpoint.
// Query parameters: ?trace=<32 hex> selects one trace, ?limit=N caps
// the trace count (default 50).
func (k *Sink) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		limit := 50
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				w.WriteHeader(http.StatusBadRequest)
				fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", "bad limit "+v)
				return
			}
			limit = n
		}
		want := r.URL.Query().Get("trace")
		traces := k.Traces()
		if want != "" {
			filtered := traces[:0]
			for _, tr := range traces {
				if tr.TraceID == want {
					filtered = append(filtered, tr)
				}
			}
			traces = filtered
		}
		if len(traces) > limit {
			traces = traces[:limit]
		}
		stored, total := k.Stats()
		out := struct {
			Traces  []TraceRecord `json:"traces"`
			Stored  int           `json:"stored_spans"`
			Evicted uint64        `json:"evicted_spans"`
		}{Traces: traces, Stored: stored, Evicted: total - uint64(stored)}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}

// Register declares the per-stage latency histograms in r under the
// given metric name (e.g. "hetserve_stage_seconds"), one label set per
// span name.
func (k *Sink) Register(r *Registry, metric string) {
	r.Histograms(metric, "Span duration by pipeline stage.", "stage", k.stages)
}
