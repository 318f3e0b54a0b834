package container

// UnionFind is a classic disjoint-set forest with union by rank and
// path compression.
type UnionFind struct {
	parent []int32
	rank   []uint8
}

// NewUnionFind returns n singleton sets {0}..{n-1}.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int32, n),
		rank:   make([]uint8, n),
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int32) int32 {
	root := x
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	for uf.parent[x] != root {
		uf.parent[x], x = root, uf.parent[x]
	}
	return root
}

// Union merges the sets of x and y and reports whether they were
// previously distinct.
func (uf *UnionFind) Union(x, y int32) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}

// Connected reports whether x and y are in the same set.
func (uf *UnionFind) Connected(x, y int32) bool { return uf.Find(x) == uf.Find(y) }

// SignedUnionFind is a disjoint-set forest where every element carries a
// parity relative to its set representative. It decides structural
// balance of a signed graph incrementally: adding edge (u,v,sign) with
// sign interpreted as parity 0 (+) or 1 (−) succeeds unless u and v are
// already connected with the opposite relative parity, which is exactly
// the appearance of a cycle with an odd number of negative edges
// (Harary's theorem).
type SignedUnionFind struct {
	parent []int32
	rank   []uint8
	parity []uint8 // parity of the path to parent (0 same side, 1 opposite)
}

// NewSignedUnionFind returns n singleton sets with parity 0.
func NewSignedUnionFind(n int) *SignedUnionFind {
	uf := &SignedUnionFind{
		parent: make([]int32, n),
		rank:   make([]uint8, n),
		parity: make([]uint8, n),
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Parity returns the parity of x relative to its set representative.
func (uf *SignedUnionFind) Parity(x int32) uint8 {
	_, p := uf.find(x)
	return p
}

// find is the internal Find that returns the caller's own parity.
func (uf *SignedUnionFind) find(x int32) (int32, uint8) {
	if uf.parent[x] == x {
		return x, 0
	}
	root, p := uf.find(uf.parent[x])
	uf.parent[x] = root
	uf.parity[x] ^= p
	return root, uf.parity[x]
}

// Union merges x and y with relative parity rel (0 when the edge is
// positive — same side; 1 when negative — opposite sides). It reports
// ok=false when x and y were already connected with a contradictory
// parity, i.e. adding this edge creates an unbalanced cycle. The merge
// is a no-op in that case.
func (uf *SignedUnionFind) Union(x, y int32, rel uint8) (merged, ok bool) {
	rx, px := uf.find(x)
	ry, py := uf.find(y)
	if rx == ry {
		return false, px^py == rel
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
		px, py = py, px
	}
	uf.parent[ry] = rx
	// parity of ry relative to rx must satisfy: px ^ parity(ry) ^ py == rel
	uf.parity[ry] = px ^ py ^ rel
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true, true
}
