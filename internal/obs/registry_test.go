package obs

import (
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRegistryExposition pins the writer's contract: declaration order,
// sorted label sets, %d integers, %g floats, and families whose source
// reports absence left out entirely.
func TestRegistryExposition(t *testing.T) {
	var r Registry
	c := r.Counter("a_total", "A.")
	v := r.CounterVec("b_total", "B.", "k", "code")
	r.IntFunc("absent", "Left out.", "gauge", func() (int64, bool) { return 1, false })
	r.IntFunc("big", "Integers stay integers.", "gauge", func() (int64, bool) { return 1500000, true })
	r.GaugeFunc("ratio", "Floats use %g.", func() float64 { return 0.25 })
	r.IntVecFunc("absent_vec", "Left out.", "gauge", []string{"k"}, func() map[string]int64 { return nil })
	r.IntVecFunc("state", "Labeled.", "gauge", []string{"k", "s"}, func() map[string]int64 {
		return map[string]int64{"y\x00open": 1, "x\x00closed": 0}
	})
	h := r.Histograms("lat_seconds", "Latency.", "k", NewHistogramVec([]float64{1}))

	c.Add(3)
	v.With("z", "200").Inc()
	v.With("a", "500").Add(2)
	v.With("a", "200").Inc()
	h.Observe("q", 0.5)

	want := `# HELP a_total A.
# TYPE a_total counter
a_total 3
# HELP b_total B.
# TYPE b_total counter
b_total{k="a",code="200"} 1
b_total{k="a",code="500"} 2
b_total{k="z",code="200"} 1
# HELP big Integers stay integers.
# TYPE big gauge
big 1500000
# HELP ratio Floats use %g.
# TYPE ratio gauge
ratio 0.25
# HELP state Labeled.
# TYPE state gauge
state{k="x",s="closed"} 0
state{k="y",s="open"} 1
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{k="q",le="1"} 1
lat_seconds_bucket{k="q",le="+Inf"} 1
lat_seconds_sum{k="q"} 0.5
lat_seconds_count{k="q"} 1
`
	if got := render(t, &r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if got := v.Sum(); got != 4 {
		t.Errorf("Sum = %d, want 4", got)
	}
}

// TestRegistryConcurrentUpdates scrapes while many goroutines update;
// run with -race this is the registry's data-race regression test.
func TestRegistryConcurrentUpdates(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "C.")
	v := r.CounterVec("v_total", "V.", "k")
	h := r.Histograms("h_seconds", "H.", "k", NewHistogramVec([]float64{0.1}))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				v.With([]string{"a", "b"}[i%2]).Inc()
				h.Observe([]string{"x", "y"}[w%2], 0.05)
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		render(t, &r)
	}
	wg.Wait()
	out := render(t, &r)
	for _, want := range []string{"c_total 2000", `v_total{k="a"} 1000`, `h_seconds_count{k="x"} 1000`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in\n%s", want, out)
		}
	}
}
