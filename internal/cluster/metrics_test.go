package cluster

import (
	"sync"
	"testing"
	"time"
)

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
// client must not hold any lock the proxy path needs to record an
// upstream call.
func TestScrapeDoesNotBlockRequests(t *testing.T) {
	m := NewMetrics()
	m.recordUpstream("http://b1", 200, time.Millisecond)
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
		m.recordUpstream("http://b1", 200, 2*time.Millisecond)
		m.shed.With("http://b1").Inc()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("upstream accounting blocked behind a stalled /metrics write")
	}
}
