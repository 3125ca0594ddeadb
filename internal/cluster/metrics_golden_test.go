package cluster

import (
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var updateMetricsGolden = flag.Bool("update", false, "rewrite testdata/metrics/*.txt from the current exposition")

var uptimeLine = regexp.MustCompile(`(?m)^(hetgate_uptime_seconds) .*$`)

// checkMetricsGolden compares a /metrics exposition, uptime masked,
// byte for byte against testdata/metrics/<name>.txt (-update rewrites
// it).
func checkMetricsGolden(t *testing.T, name, got string) {
	t.Helper()
	got = uptimeLine.ReplaceAllString(got, "$1 <uptime>")
	path := filepath.Join("testdata", "metrics", name+".txt")
	if *updateMetricsGolden {
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

// TestMetricsGolden pins the full hetgate exposition — every metric
// name, label, # HELP and # TYPE line, value format and series order —
// for a registry driven through a fixed event sequence, and the
// /metrics handler's output, including the stage-histogram section from
// the span sink.
func TestMetricsGolden(t *testing.T) {
	const b1, b2, b3 = "http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080"
	t.Run("registry", func(t *testing.T) {
		m := NewMetrics()
		m.recordUpstream(b1, 200, 3*time.Millisecond)
		m.recordUpstream(b1, 200, 300*time.Millisecond)
		m.recordUpstream(b1, 0, 40*time.Millisecond)
		m.recordUpstream(b2, 429, time.Millisecond)
		m.recordUpstream(b2, 200, 20*time.Second)
		m.recordUpstream(b3, 503, 7*time.Millisecond)
		m.retries.Add(2)
		m.hedges.Inc()
		m.coalesced.Add(3)
		m.probes.With(b1, "ok").Add(2)
		m.probes.With(b2, "fail").Inc()
		m.probes.With(b3, "ok").Inc()
		m.shed.With(b2).Add(2)
		m.shed.With(b3).Inc()
		m.degraded.With(b1).Inc()
		m.transfers.With(b1, "skip").Inc()
		m.transfers.With(b2, "warm").Add(2)
		m.transfers.With(b2, "skip").Inc()
		m.fanoutJobs.Add(2)
		m.fanoutItems.Add(8)
		m.fanoutSubBatches.With(b1).Inc()
		m.fanoutSubBatches.With(b2).Add(2)
		m.fanoutHedges.Inc()
		m.fanoutDegraded.Add(2)
		m.deadlines.Inc()
		m.breakerStates = func() map[string]BreakerState {
			return map[string]BreakerState{b3: BreakerHalfOpen, b1: BreakerClosed, b2: BreakerOpen}
		}
		var sb strings.Builder
		if _, err := m.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		checkMetricsGolden(t, "hetgate_registry", sb.String())
	})
	t.Run("handler", func(t *testing.T) {
		g, err := New(Config{Backends: []string{b2, b1}})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Unix(1700000000, 0)
		for i, name := range []string{"forward", "upstream", "forward"} {
			g.Sink().Observe(&obs.Span{Name: name, Start: start, End: start.Add(time.Duration(i+1) * time.Millisecond)})
		}
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		body, _ := io.ReadAll(rec.Body)
		checkMetricsGolden(t, "hetgate_handler", string(body))
	})
}
