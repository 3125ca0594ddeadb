package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs
// and how many samples lie strictly beyond it. xs is not modified.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i], len(s) - 1 - i
}

// median is the middle value (mean of the two middle values for even
// counts); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// regretPct is the paper's Table I time difference of an answer, in
// percent: T(answer)/T(optimum) − 1.
func regretPct(answer, optimum time.Duration) float64 {
	return 100 * (float64(answer)/float64(optimum) - 1)
}

// ms converts a duration to milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rungs are the ladder's paired self times of one request, in ms:
// what each layer adds on top of the layer below it.
type rungs struct {
	hop      float64 // gateway − direct backend
	loopback float64 // direct backend − in-process handler
	self     float64 // in-process handler − library calls it made
	core     float64 // library calls
}

// ladderRungs splits one request's latencies at the four surfaces into
// per-layer self times. The four add back up to the gateway latency.
func ladderRungs(gateway, direct, handler, core float64) rungs {
	return rungs{hop: gateway - direct, loopback: direct - handler, self: handler - core, core: core}
}

// unattributed is client latency that no rung of the ladder explains:
// the closed loop's median latency minus the sum of the rung medians.
// Contention between concurrent clients, and the difference between a
// median of sums and a sum of medians, land here.
func unattributed(clientP50 float64, rungMedians rungs) float64 {
	return clientP50 - (rungMedians.hop + rungMedians.loopback + rungMedians.self + rungMedians.core)
}
