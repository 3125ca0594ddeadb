package graph

import (
	"reflect"
	"testing"
)

// intoVariants pairs each tuned scratch kernel with its frozen
// reference (reference.go) run on a fresh scratch; the tuned form must
// reproduce labels AND work counters exactly, since the simulator
// charges device time from the counters. The allocating DFS,
// ParallelCPU and ShiloachVishkin wrap the tuned kernels, so this also
// pins them.
var intoVariants = []struct {
	name string
	orig func(*Graph) *CCResult
	into func(*Graph, *CCResult, *CCScratch)
}{
	{"DFS", fresh(DFSRef), DFSInto},
	{"ParallelCPU4", fresh(func(g *Graph, res *CCResult, s *CCScratch) { ParallelCPURef(g, 4, res, s) }),
		func(g *Graph, res *CCResult, s *CCScratch) { ParallelCPUInto(g, 4, res, s) }},
	{"ParallelCPU1", fresh(func(g *Graph, res *CCResult, s *CCScratch) { ParallelCPURef(g, 1, res, s) }),
		func(g *Graph, res *CCResult, s *CCScratch) { ParallelCPUInto(g, 1, res, s) }},
	{"ShiloachVishkin", fresh(ShiloachVishkinRef), ShiloachVishkinInto},
}

// fresh runs a reference kernel on its own scratch, so the result it
// returns is independently owned.
func fresh(ref func(*Graph, *CCResult, *CCScratch)) func(*Graph) *CCResult {
	return func(g *Graph) *CCResult {
		res := new(CCResult)
		ref(g, res, new(CCScratch))
		return res
	}
}

func TestIntoVariantsMatchOriginals(t *testing.T) {
	for _, kind := range []GenKind{KindGNM, KindRMAT, KindRoad, KindMesh} {
		g, err := Generate(GenGraphConfig{Kind: kind, N: 777, M: 1500, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range intoVariants {
			want := v.orig(g)
			var got CCResult
			var s CCScratch
			v.into(g, &got, &s)
			if !reflect.DeepEqual(&got, want) {
				t.Errorf("%v/%s: Into result differs from reference\n got %+v\nwant %+v",
					kind, v.name, abbrev(&got), abbrev(want))
			}
		}
	}
}

// TestIntoScratchReuse runs each Into variant repeatedly on graphs of
// shrinking and growing sizes through ONE scratch: stale state from a
// previous (larger) graph must never leak into the next result.
func TestIntoScratchReuse(t *testing.T) {
	sizes := []int{400, 64, 777, 8, 400}
	for _, v := range intoVariants {
		var s CCScratch
		var res CCResult
		for _, n := range sizes {
			g, err := Generate(GenGraphConfig{Kind: KindGNM, N: n, M: 2 * n, Seed: uint64(n)})
			if err != nil {
				t.Fatal(err)
			}
			want := v.orig(g)
			v.into(g, &res, &s)
			if !reflect.DeepEqual(&res, want) {
				t.Errorf("%s: n=%d reused scratch diverges from reference", v.name, n)
			}
		}
	}
}

// TestIntoVariantsAllocFree pins the steady-state allocation count of
// every scratch kernel to zero: after a warm-up call sizes the
// buffers, repeated evaluations on the same graph must not touch the
// heap at all.
func TestIntoVariantsAllocFree(t *testing.T) {
	g, err := Generate(GenGraphConfig{Kind: KindRMAT, N: 2048, M: 8192, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range intoVariants {
		var s CCScratch
		var res CCResult
		v.into(g, &res, &s) // warm up: size the scratch
		allocs := testing.AllocsPerRun(10, func() {
			v.into(g, &res, &s)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per warmed-up run, want 0", v.name, allocs)
		}
	}
}

func TestUnionFindReset(t *testing.T) {
	uf := NewUnionFind(8)
	uf.Union(0, 1)
	uf.Union(2, 3)
	uf.Reset(8)
	if uf.Unions != 0 || uf.Finds != 0 {
		t.Errorf("Reset left counters: unions=%d finds=%d", uf.Unions, uf.Finds)
	}
	for i := 0; i < 8; i++ {
		if uf.Find(i) != i {
			t.Errorf("after Reset, Find(%d) = %d, want singleton", i, uf.Find(i))
		}
	}
	// Shrinking reuses the arrays; growing reallocates. Both must give
	// a valid singleton forest.
	uf.Reset(3)
	uf.Union(0, 2)
	if !uf.Same(0, 2) || uf.Same(0, 1) {
		t.Error("union-find broken after shrink Reset")
	}
	uf.Reset(16)
	for i := 0; i < 16; i++ {
		if uf.Find(i) != i {
			t.Fatalf("after grow Reset, Find(%d) = %d", i, uf.Find(i))
		}
	}
}

// canonicalizeMinLabels is the map-based canonicalization the slice
// form replaced, kept here as its specification.
func canonicalizeMinLabels(labels []int32) {
	minOf := make(map[int32]int32, 16)
	for v, l := range labels {
		if cur, ok := minOf[l]; !ok || int32(v) < cur {
			minOf[l] = int32(v)
		}
	}
	for v := range labels {
		labels[v] = minOf[labels[v]]
	}
}

func TestCanonicalizeMinLabelsIntoMatchesMap(t *testing.T) {
	labels := []int32{4, 4, 2, 2, 4, 5, 2}
	viaMap := append([]int32(nil), labels...)
	canonicalizeMinLabels(viaMap)
	viaSlice := append([]int32(nil), labels...)
	CanonicalizeMinLabelsInto(viaSlice, make([]int32, len(labels)))
	if !sameLabels(viaMap, viaSlice) {
		t.Errorf("slice canonicalization %v differs from map %v", viaSlice, viaMap)
	}
}

// abbrev trims Labels for readable failure output.
func abbrev(r *CCResult) CCResult {
	c := *r
	if len(c.Labels) > 8 {
		c.Labels = c.Labels[:8]
	}
	return c
}
