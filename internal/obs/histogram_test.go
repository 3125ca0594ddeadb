package obs

import (
	"strings"
	"testing"
)

// TestHistogramBucketing is the histogram's contract test: cumulative
// buckets, inclusive upper bounds, and +Inf catching the rest.
func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(0.0001) // below the first bound
	h.Observe(0.001)  // exactly on a bound counts in that bucket
	h.Observe(0.05)
	h.Observe(99) // beyond every bound lands in +Inf only
	if h.Total() != 4 {
		t.Errorf("total = %d, want 4", h.Total())
	}

	var sb strings.Builder
	if _, err := h.WriteProm(&sb, "m", `k="v"`); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`m_bucket{k="v",le="0.001"} 2`, // cumulative: 0.0001 and 0.001
		`m_bucket{k="v",le="0.01"} 2`,
		`m_bucket{k="v",le="0.1"} 3`,
		`m_bucket{k="v",le="+Inf"} 4`,
		`m_count{k="v"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestHistogramBareLabels(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	var sb strings.Builder
	if _, err := h.WriteProm(&sb, "m", ""); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`m_bucket{le="1"} 1`,
		`m_bucket{le="+Inf"} 1`,
		"m_sum 0.5",
		"m_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "m_sum{") || strings.Contains(out, "m_count{") {
		t.Errorf("bare series grew braces:\n%s", out)
	}
}

func TestHistogramCopiesBounds(t *testing.T) {
	bounds := []float64{1, 2}
	h := NewHistogram(bounds)
	bounds[0] = 100 // caller mutating its slice must not skew bucketing
	h.Observe(1.5)
	var sb strings.Builder
	if _, err := h.WriteProm(&sb, "m", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `m_bucket{le="1"} 0`) {
		t.Errorf("bounds not copied:\n%s", sb.String())
	}
}
