package graph

// CCResult is the outcome of a connected-components computation,
// together with the work counters the platform simulator charges
// against the executing device.
type CCResult struct {
	// Labels[v] is the component representative of vertex v; two
	// vertices are in the same component iff their labels are equal.
	Labels []int32
	// Components is the number of connected components.
	Components int
	// VerticesVisited and EdgesVisited count the work actually
	// performed (arcs scanned, including both directions).
	VerticesVisited int64
	EdgesVisited    int64
	// Rounds is the number of hooking+jumping iterations for
	// Shiloach–Vishkin; 0 for traversal-based algorithms.
	Rounds int
}

// NumComponents counts distinct labels in labels (which must be
// canonical representatives, as produced by the algorithms here).
func NumComponents(labels []int32) int {
	n := 0
	for v, l := range labels {
		if int32(v) == l {
			n++
		}
	}
	return n
}

// DFS computes connected components with an iterative depth-first
// search, the paper's sequential CPU kernel ("the sequential
// depth-first search algorithm [8] is used on the CPU"). Labels are
// the minimum vertex id of each component. It runs DFSInto on a fresh
// scratch, so the result is independently owned.
func DFS(g *Graph) *CCResult {
	res := new(CCResult)
	DFSInto(g, res, new(CCScratch))
	return res
}

// ParallelCPU computes connected components the way `workers` threads
// would (see ParallelCPUInto), on a fresh scratch.
func ParallelCPU(g *Graph, workers int) *CCResult {
	res := new(CCResult)
	ParallelCPUInto(g, workers, res, new(CCScratch))
	return res
}

// ShiloachVishkin computes connected components with the paper's GPU
// kernel (see ShiloachVishkinInto), on a fresh scratch.
func ShiloachVishkin(g *Graph) *CCResult {
	res := new(CCResult)
	ShiloachVishkinInto(g, res, new(CCScratch))
	return res
}

// UnionFind is a disjoint-set forest with union by rank and path
// compression, used to merge partial component labelings and to
// process cross edges in the heterogeneous algorithm.
type UnionFind struct {
	parent []int32
	rank   []int8
	// Unions counts successful (merging) union operations, a work
	// measure for the merge phase.
	Unions int64
	// Finds counts find operations including those inside Union.
	Finds int64
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	uf.Finds++
	root := int32(x)
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	// Path compression.
	for int32(x) != root {
		next := uf.parent[x]
		uf.parent[x] = root
		x = int(next)
	}
	return int(root)
}

// Union merges the sets of x and y, returning true if they were
// previously distinct.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := int32(uf.Find(x)), int32(uf.Find(y))
	if rx == ry {
		return false
	}
	uf.Unions++
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}

// Same reports whether x and y are in the same set.
func (uf *UnionFind) Same(x, y int) bool { return uf.Find(x) == uf.Find(y) }
