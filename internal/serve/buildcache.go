package serve

import (
	"strings"
	"sync"

	"repro/internal/flight"
)

// buildCache holds constructed dataset workloads keyed by (platform,
// workload, dataset). Building a Table II replica workload re-parses
// the dataset and reconstructs the graph/matrix plus its profile —
// real milliseconds the result-cache LRU pays again on every miss over
// the same input. The population is bounded by construction (named
// datasets × workload kinds × one platform per server), so entries
// live for the life of the server; uploads are never cached here —
// their population is unbounded and their bytes are request-scoped.
//
// Sharing one built workload across concurrent pipelines is safe: the
// in-tree workloads treat their input and profile as immutable and
// Sample builds a fresh inner workload per call (see the concurrency
// notes on each Evaluate).
type buildCache struct {
	flight flight.Group

	mu sync.Mutex
	m  map[string]any
}

func newBuildCache() *buildCache {
	return &buildCache{m: make(map[string]any)}
}

// buildKey identifies the request's constructed dataset workload. A
// scalar key names the platform's devices, so servers sharing a cache
// could never conflate calibrations (the algorithm wrappers embed the
// platform); an N-device key carries the inventory's signature — every
// device's calibration plus the link — so inventories of different size
// or speed never collide, and never collide with scalar keys, which
// have no signature braces.
func (s *Server) buildKey(req *request) string {
	if req.mp != nil {
		return strings.Join([]string{req.mp.Signature(), req.workload, req.input}, "|")
	}
	return strings.Join([]string{s.platform.CPU.Spec.Name, s.platform.GPU.Spec.Name, req.workload, req.input}, "|")
}

// get returns the cached workload for key, or builds it. Concurrent
// misses on one key coalesce into a single build (singleflight): the
// leader builds, followers share the result and count as hits. Build
// errors are returned to the whole herd and not cached, so a transient
// failure does not poison the key.
func (c *buildCache) get(key string, build func() (any, error)) (v any, hit bool, err error) {
	c.mu.Lock()
	if v, ok := c.m[key]; ok {
		c.mu.Unlock()
		return v, true, nil
	}
	c.mu.Unlock()
	v, err, leader := c.flight.Do(key, func() (any, error) {
		v, err := build()
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.m[key] = v
		c.mu.Unlock()
		return v, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v, !leader, nil
}

// len reports the current population (tests, metrics).
func (c *buildCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
