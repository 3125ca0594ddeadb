package serve

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// uptimeLine matches the only time-dependent series of a Metrics
// exposition driven with fixed durations.
var uptimeLine = regexp.MustCompile(`(?m)^(het(?:serve|gate)_uptime_seconds) .*$`)

// checkMetricsGolden compares a /metrics exposition, uptime masked,
// byte for byte against testdata/metrics/<name>.txt (-update rewrites
// it).
func checkMetricsGolden(t *testing.T, name, got string) {
	t.Helper()
	got = uptimeLine.ReplaceAllString(got, "$1 <uptime>")
	path := filepath.Join("testdata", "metrics", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// driveMetrics feeds a fixed sequence of events into m. Durations are
// fixed, so every bucket count and _sum is deterministic.
func driveMetrics(m *Metrics) {
	m.RequestStarted("spmm")(200, 3*time.Millisecond)
	m.RequestStarted("spmm")(200, 700*time.Millisecond)
	m.RequestStarted("cc")(404, 200*time.Microsecond)
	m.RequestStarted("cc")(200, 2*time.Second)
	m.RequestStarted("scalefree")(504, 30*time.Second)
	m.RequestStarted("batch")(200, 40*time.Millisecond)
	m.RequestStarted("cc") // left in flight
	for i := 0; i < 3; i++ {
		m.cacheMisses.Inc()
	}
	m.cacheHits.Add(2)
	m.coalesced.Inc()
	m.buildHits.Inc()
	m.buildMisses.Add(2)
	m.shed.Add(2)
	m.degraded.Inc()
	m.staleServed.Inc()
	m.deadlineExceeded.Add(3)
	m.batchJobs.Add(2)
	m.batchItems.Add(6)
	m.batchRejected.Inc()
	for _, o := range []string{"refined", "refined", "cached", "shed", "deadline", "refined"} {
		m.batchOutcomes.With(o).Inc()
	}
	m.storeHits.Add(2)
	m.storeWarmStarts.Inc()
	m.storeSkips.Inc()
	m.storeProbes.Add(3)
	m.storeRejects.Inc()
	m.storeReestimates.Inc()
	for i := 0; i < 5; i++ {
		m.EvalStarted()
	}
	for i := 0; i < 3; i++ {
		m.EvalDone()
	}
	m.cacheStats = func() CacheStats { return CacheStats{Len: 7, Cap: 64, Evictions: 3} }
	// Costs above 1e6 pin the integer format: %g would print 1.5e+06.
	m.admissionStats = func() AdmissionStats {
		return AdmissionStats{QueueDepth: 2, CostInUse: 1500000, CostLimit: 4000000}
	}
}

// TestMetricsGolden pins the full hetserve exposition — every metric
// name, label, # HELP and # TYPE line, value format and series order —
// with the store off and on, and the /metrics handler's output,
// including the stage-histogram section from the span sink.
func TestMetricsGolden(t *testing.T) {
	t.Run("store_off", func(t *testing.T) {
		m := NewMetrics()
		driveMetrics(m)
		var sb strings.Builder
		if _, err := m.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		checkMetricsGolden(t, "hetserve_store_off", sb.String())
	})
	t.Run("store_on", func(t *testing.T) {
		m := NewMetrics()
		driveMetrics(m)
		m.storeStats = func() int { return 11 }
		var sb strings.Builder
		if _, err := m.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		checkMetricsGolden(t, "hetserve_store_on", sb.String())
	})
	t.Run("handler", func(t *testing.T) {
		st, err := store.Open(store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Workers: 1, CacheSize: 16, Store: st})
		start := time.Unix(1700000000, 0)
		for i, name := range []string{"sample", "identify", "sample"} {
			s.Sink().Observe(&obs.Span{Name: name, Start: start, End: start.Add(time.Duration(i+1) * time.Millisecond)})
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		body, _ := io.ReadAll(rec.Body)
		checkMetricsGolden(t, "hetserve_handler", string(body))
	})
}
