package serve

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	done := m.RequestStarted("spmm")
	if m.InFlight() != 1 {
		t.Errorf("in flight = %d, want 1", m.InFlight())
	}
	done(200, 3*time.Millisecond)
	if m.InFlight() != 0 {
		t.Errorf("in flight = %d, want 0", m.InFlight())
	}
	m.RequestStarted("cc")(404, time.Millisecond)
	m.cacheMisses.Inc()
	m.cacheMisses.Inc()
	m.cacheHits.Inc()

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`hetserve_requests_total{workload="spmm",code="200"} 1`,
		`hetserve_requests_total{workload="cc",code="404"} 1`,
		"hetserve_cache_hits_total 1",
		"hetserve_cache_misses_total 2",
		"hetserve_in_flight_requests 0",
		`hetserve_request_duration_seconds_bucket{workload="spmm",le="+Inf"} 1`,
		`hetserve_request_duration_seconds_count{workload="spmm"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
	if got := m.CacheHitRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("hit ratio = %v, want ~1/3", got)
	}
}

// blockingWriter stands in for a stalled scrape connection: every
// Write blocks until release is closed.
type blockingWriter struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestScrapeDoesNotBlockRequests: a scrape stuck writing to a slow
// client must not hold any lock a request needs to record itself.
func TestScrapeDoesNotBlockRequests(t *testing.T) {
	m := NewMetrics()
	m.RequestStarted("cc")(200, time.Millisecond)
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		m.WriteTo(w)
		close(scraped)
	}()
	defer func() {
		close(w.release)
		<-scraped
	}()
	<-w.entered

	done := make(chan struct{})
	go func() {
		m.RequestStarted("cc")(200, 2*time.Millisecond)
		m.cacheHits.Inc()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request accounting blocked behind a stalled /metrics write")
	}
}
