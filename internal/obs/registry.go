package obs

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is an ordered list of declared metrics with one Prometheus
// text exposition writer. Metrics are rendered in declaration order,
// the label sets of a vector in sorted order. The zero value is ready
// to use; declare every metric before the first scrape.
type Registry struct {
	families []family
}

type family struct {
	name, help, typ string
	// write renders the family's samples; false leaves the family out,
	// # HELP and # TYPE included.
	write func(b *bytes.Buffer) bool
}

func (r *Registry) add(name, help, typ string, write func(*bytes.Buffer) bool) {
	r.families = append(r.families, family{name, help, typ, write})
}

// WriteTo renders the registry in the Prometheus text format. Every
// metric is rendered into memory first, each holding its own lock
// only while it copies its values, and the result is written to w
// after: a slow scrape client never stalls the requests that update
// the metrics.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	for _, f := range r.families {
		mark := b.Len()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if !f.write(&b) {
			b.Truncate(mark)
		}
	}
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

// Counter is a monotonically increasing count, safe for concurrent use
// without locks.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter declares an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.add(name, help, "counter", func(b *bytes.Buffer) bool {
		fmt.Fprintf(b, "%s %d\n", name, c.Value())
		return true
	})
	return c
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct {
	mu sync.Mutex
	m  map[string]*Counter // key: label values joined by "\x00"
}

// CounterVec declares a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{m: make(map[string]*Counter)}
	r.add(name, help, "counter", func(b *bytes.Buffer) bool {
		writeSorted(b, name, labels, v.Values())
		return true
	})
	return v
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.m[key]
	if c == nil {
		c = new(Counter)
		v.m[key] = c
	}
	return c
}

// Values returns a copy of the counts keyed by label values joined by
// "\x00".
func (v *CounterVec) Values() map[string]uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]uint64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Value()
	}
	return out
}

// Sum returns the total over every label set.
func (v *CounterVec) Sum() uint64 {
	var sum uint64
	for _, n := range v.Values() {
		sum += n
	}
	return sum
}

// GaugeFunc declares a gauge read from fn at scrape time and printed
// with %g.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", func(b *bytes.Buffer) bool {
		fmt.Fprintf(b, "%s %g\n", name, fn())
		return true
	})
}

// IntFunc declares an integer metric of type typ ("gauge" or
// "counter") read from fn at scrape time. When fn reports false the
// metric is left out.
func (r *Registry) IntFunc(name, help, typ string, fn func() (int64, bool)) {
	r.add(name, help, typ, func(b *bytes.Buffer) bool {
		n, ok := fn()
		if ok {
			fmt.Fprintf(b, "%s %d\n", name, n)
		}
		return ok
	})
}

// IntVecFunc declares a labeled integer metric read from fn at scrape
// time, keyed like CounterVec.Values. A nil map leaves the metric out.
func (r *Registry) IntVecFunc(name, help, typ string, labels []string, fn func() map[string]int64) {
	r.add(name, help, typ, func(b *bytes.Buffer) bool {
		m := fn()
		writeSorted(b, name, labels, m)
		return m != nil
	})
}

// writeSorted renders one sample per label set in key order; a key is
// the label values joined by "\x00".
func writeSorted[V uint64 | int64](b *bytes.Buffer, name string, labels []string, m map[string]V) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(b, "%s{%s} %d\n", name, labelPairs(labels, strings.Split(k, "\x00")), m[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// labelPairs renders `a="x",b="y"`.
func labelPairs(names, values []string) string {
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", n, values[i])
	}
	return sb.String()
}

// HistogramVec is a family of Histograms over one label, safe for
// concurrent use.
type HistogramVec struct {
	buckets []float64
	mu      sync.Mutex
	m       map[string]*Histogram
}

// NewHistogramVec returns an empty vector whose histograms share the
// given ascending upper bounds.
func NewHistogramVec(buckets []float64) *HistogramVec {
	return &HistogramVec{buckets: buckets, m: make(map[string]*Histogram)}
}

// Observe records v in the histogram for label value lv.
func (v *HistogramVec) Observe(lv string, x float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.m[lv]
	if !ok {
		h = NewHistogram(v.buckets)
		v.m[lv] = h
	}
	h.Observe(x)
}

// Histograms declares v, labeled by label, as a histogram metric, and
// returns v.
func (r *Registry) Histograms(name, help, label string, v *HistogramVec) *HistogramVec {
	r.add(name, help, "histogram", func(b *bytes.Buffer) bool {
		v.mu.Lock()
		snap := make(map[string]*Histogram, len(v.m))
		for k, h := range v.m {
			c := *h
			c.counts = slices.Clone(h.counts)
			snap[k] = &c
		}
		v.mu.Unlock()
		for _, k := range sortedKeys(snap) {
			snap[k].WriteProm(b, name, labelPairs([]string{label}, []string{k}))
		}
		return true
	})
	return v
}
