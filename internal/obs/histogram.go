package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Histogram is a fixed-bucket cumulative latency histogram.
//
// It is not internally locked: its owner, a HistogramVec, serializes
// observations and scrape-time snapshots under the vector's mutex.
type Histogram struct {
	buckets []float64
	counts  []uint64 // one per bucket, plus +Inf at the end
	sum     float64
	total   uint64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (seconds). The bounds are copied.
func NewHistogram(buckets []float64) *Histogram {
	b := append([]float64(nil), buckets...)
	return &Histogram{buckets: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// Total returns the observation count.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// WriteProm renders the histogram's _bucket/_sum/_count series for
// metric in the Prometheus text exposition format. labels is spliced
// before the le label (e.g. `workload="cc"`); pass "" for none. The
// caller is responsible for the # HELP / # TYPE preamble, which is
// shared across label sets.
func (h *Histogram) WriteProm(w io.Writer, metric, labels string) (int64, error) {
	var n int64
	p := func(format string, args ...any) error {
		c, err := fmt.Fprintf(w, format, args...)
		n += int64(c)
		return err
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i]
		if err := p("%s_bucket{%s%sle=%q} %d\n", metric, labels, sep, formatBound(ub), cum); err != nil {
			return n, err
		}
	}
	cum += h.counts[len(h.buckets)]
	if err := p("%s_bucket{%s%sle=\"+Inf\"} %d\n", metric, labels, sep, cum); err != nil {
		return n, err
	}
	// With no labels the series are written bare ("metric_sum 3"),
	// matching the style of the existing registries.
	brace := func(suffix string) string {
		if labels == "" {
			return metric + suffix
		}
		return metric + suffix + "{" + labels + "}"
	}
	if err := p("%s %g\n", brace("_sum"), h.sum); err != nil {
		return n, err
	}
	if err := p("%s %d\n", brace("_count"), h.total); err != nil {
		return n, err
	}
	return n, nil
}

func formatBound(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
