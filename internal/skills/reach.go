package skills

import "repro/internal/sgraph"

// ReachIndex is the skill reach of one graph snapshot: for every node
// u and radius r of 1 or 2, the set of skills held by some node within
// r unsigned hops of u, u itself included, as a bitset over the skill
// universe (bit s of word s/64 is set iff skill s is held there).
// Graph nodes past the assignment's users hold no skills. A team whose
// members all lie within r hops of u must draw its skills from this
// set, which is what lets the team solver drop a seed before growing
// it. The index is immutable once published.
type ReachIndex struct {
	g     *sgraph.Graph
	words int      // words per set: ⌈universe/64⌉
	bits  []uint64 // node u's radius-r set starts at word (2u+r-1)·words
}

// Within returns the skills held within r hops of u, for r 1 or 2, as
// a shared bitset of ⌈universe/64⌉ words that must not be modified.
func (ri *ReachIndex) Within(u sgraph.NodeID, r int) []uint64 {
	off := (2*int(u) + r - 1) * ri.words
	return ri.bits[off : off+ri.words : off+ri.words]
}

// Reach returns the reach index of g. It is built on first request,
// in O(m·⌈universe/64⌉) time, and cached on the assignment until a
// request names another graph or Add changes a skill set. A mutable
// graph publishes a new snapshot per mutation, so the first request
// after a mutation rebuilds. Concurrent first requests for one graph
// all receive the one index that was published. Safe for concurrent
// use, lock-free once built.
//
//tfsn:noalloc
func (a *Assignment) Reach(g *sgraph.Graph) *ReachIndex {
	cur := a.reach.Load()
	if cur != nil && cur.g == g {
		return cur
	}
	w := (a.universe.Len() + 63) / 64
	//tfsn:allow-alloc(the one build per graph snapshot and skill assignment; every later request is a load)
	ri := &ReachIndex{g: g, words: w, bits: make([]uint64, 2*g.NumNodes()*w)}
	a.fillReach(ri)
	if a.reach.CompareAndSwap(cur, ri) {
		return ri
	}
	if won := a.reach.Load(); won != nil && won.g == g {
		return won
	}
	return ri // another graph's index was published meanwhile
}

// fillReach computes ri's sets: radius 1 from each node's own and its
// neighbours' skills, then radius 2 as the union of the radius-1 sets
// of the node and its neighbours.
func (a *Assignment) fillReach(ri *ReachIndex) {
	g := ri.g
	n := g.NumNodes()
	add := func(set []uint64, v sgraph.NodeID) {
		if int(v) < len(a.ofUser) {
			for _, s := range a.ofUser[v] {
				set[s>>6] |= 1 << uint(s&63)
			}
		}
	}
	for u := sgraph.NodeID(0); int(u) < n; u++ {
		r1 := ri.Within(u, 1)
		add(r1, u)
		for _, v := range g.NeighborIDs(u) {
			add(r1, v)
		}
	}
	for u := sgraph.NodeID(0); int(u) < n; u++ {
		r2 := ri.Within(u, 2)
		copy(r2, ri.Within(u, 1))
		for _, v := range g.NeighborIDs(u) {
			for i, x := range ri.Within(v, 1) {
				r2[i] |= x
			}
		}
	}
}
