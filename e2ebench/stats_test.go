package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{0.99, 990, 10},
		{0.95, 950, 50},
		{0.5, 500, 500},
		{1, 1000, 0},
		{0.0001, 1, 999},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.value || beyond != c.beyond {
			t.Errorf("p%g of 1..1000 = %g with %d beyond, want %g with %d", 100*c.p, v, beyond, c.value, c.beyond)
		}
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	// 999 samples cannot put ten beyond p99.
	if _, beyond := percentile(xs[:999], 0.99); beyond != 9 {
		t.Errorf("p99 of 999 samples has %d beyond, want 9", beyond)
	}
	if v, beyond := percentile(nil, 0.99); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("p99 of nothing = %g, %d", v, beyond)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("median or mean of nothing is not NaN")
	}
	if r := ratio(3, 0); r != 0 {
		t.Errorf("ratio with nothing attempted = %g", r)
	}
	if r := ratio(1, 4); r != 0.25 {
		t.Errorf("ratio(1, 4) = %g", r)
	}
}

func TestRegretArithmetic(t *testing.T) {
	for _, c := range []struct {
		answer, optimum time.Duration
		want            float64
	}{
		{110 * time.Millisecond, 100 * time.Millisecond, 10},
		{100 * time.Millisecond, 100 * time.Millisecond, 0},
		{300 * time.Microsecond, 100 * time.Microsecond, 200},
		// An off-grid answer can beat the unit-stride exhaustive optimum.
		{99 * time.Millisecond, 100 * time.Millisecond, -1},
	} {
		if got := regretPct(c.answer, c.optimum); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("regretPct(%v, %v) = %g, want %g", c.answer, c.optimum, got, c.want)
		}
	}
	if m := mean([]float64{10, 0, 200}); m != 70 {
		t.Errorf("mean regret = %g, want 70", m)
	}
}

func TestLadderResidualArithmetic(t *testing.T) {
	r := ladderRungs(10, 7, 5, 4)
	if r != (rungs{hop: 3, loopback: 2, self: 1, core: 4}) {
		t.Fatalf("ladderRungs(10, 7, 5, 4) = %+v", r)
	}
	// The rungs of one request add back up to its gateway latency, so a
	// closed-loop median equal to it leaves nothing unattributed.
	if u := unattributed(10, r); u != 0 {
		t.Errorf("unattributed(10, rungs of a 10 ms request) = %g, want 0", u)
	}
	if u := unattributed(12.5, r); u != 2.5 {
		t.Errorf("unattributed(12.5, ...) = %g, want 2.5", u)
	}
	// A cached answer makes no library calls: its core rung is zero and
	// the handler's whole time is its own.
	if r := ladderRungs(15, 5, 4, 0); r.self != 4 || r.core != 0 || r.hop != 10 {
		t.Errorf("cached rungs = %+v", r)
	}
	// Medians do not add: a residual may be negative, and is reported
	// as measured.
	if u := unattributed(6, rungs{hop: 1, loopback: 1, self: 1, core: 4}); u != -1 {
		t.Errorf("unattributed = %g, want -1", u)
	}
}
