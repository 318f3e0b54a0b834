// Package balance implements structural balance on signed graphs: the
// whole-graph balance test (Harary's theorem), the balanced-path
// machinery behind the SBP compatibility of "Forming Compatible Teams
// in Signed Networks" (EDBT 2020), the exact exponential SBP
// enumerator, and the SBPH prefix-property heuristic.
//
// Terminology. A signed graph is structurally balanced when it has no
// cycle with an odd number of negative edges; equivalently (Harary)
// when its nodes can be split into two camps with all positive edges
// inside a camp and all negative edges across. A path P is
// structurally balanced when the subgraph induced by P's node set is
// balanced. Because the path itself spans its node set, the induced
// subgraph is balanced exactly when the two-colouring forced by
// walking the path (flip camps on a negative edge) is consistent with
// every induced non-path edge — which is what Walk checks
// incrementally in O(degree) per extension.
package balance

import (
	"repro/internal/container"
	"repro/internal/sgraph"
)

// IsBalanced reports whether the whole graph is structurally balanced,
// i.e. contains no cycle with an odd number of negative edges. It runs
// in near-linear time via a parity union-find.
func IsBalanced(g *sgraph.Graph) bool {
	uf := container.NewSignedUnionFind(g.NumNodes())
	for _, e := range g.Edges() {
		rel := uint8(0)
		if e.Sign == sgraph.Negative {
			rel = 1
		}
		if _, ok := uf.Union(e.U, e.V, rel); !ok {
			return false
		}
	}
	return true
}

// Camps returns a two-camp assignment (0/1 per node) certifying
// balance, or ok=false when the graph is unbalanced. Nodes in
// different components are coloured independently (component roots get
// camp 0).
func Camps(g *sgraph.Graph) (camps []uint8, ok bool) {
	uf := container.NewSignedUnionFind(g.NumNodes())
	for _, e := range g.Edges() {
		rel := uint8(0)
		if e.Sign == sgraph.Negative {
			rel = 1
		}
		if _, ok := uf.Union(e.U, e.V, rel); !ok {
			return nil, false
		}
	}
	camps = make([]uint8, g.NumNodes())
	for u := range camps {
		camps[u] = uf.Parity(sgraph.NodeID(u))
	}
	return camps, true
}

// Frustration returns the number of edges violated by the best
// two-camp split found by bestCamps. It is an upper bound on the
// frustration index (exact frustration is NP-hard). A balanced graph
// yields 0.
func Frustration(g *sgraph.Graph) int {
	_, f := bestCamps(g)
	return f
}

// bestCamps returns a two-camp split minimising violated edges, found
// by a deterministic greedy pass followed by single-node local
// search, together with the number of violated edges (intra-camp
// negative or inter-camp positive). On a balanced graph the split is
// exact and violations are 0; otherwise it is a heuristic upper bound
// on the frustration index.
func bestCamps(g *sgraph.Graph) (camps []uint8, violations int) {
	n := g.NumNodes()
	camp := make([]uint8, n)
	assigned := make([]bool, n)

	// Greedy BFS colouring: put each node in the camp that violates
	// fewest already-assigned neighbours.
	q := container.NewIntQueue(n)
	for s := sgraph.NodeID(0); int(s) < n; s++ {
		if assigned[s] {
			continue
		}
		assigned[s] = true
		q.Push(s)
		for !q.Empty() {
			u := q.Pop()
			for _, v := range g.NeighborIDs(u) {
				if assigned[v] {
					continue
				}
				// Tentatively choose v's camp by counting violations
				// against assigned neighbours of v.
				bad0, bad1 := 0, 0
				vids := g.NeighborIDs(v)
				vsigns := g.NeighborSigns(v)
				for j, w := range vids {
					if !assigned[w] {
						continue
					}
					sameCampGood := vsigns[j] == sgraph.Positive
					if (camp[w] == 0) == sameCampGood {
						bad1++ // putting v in camp 1 violates (v,w)
					} else {
						bad0++
					}
				}
				if bad1 < bad0 {
					camp[v] = 1
				} else {
					camp[v] = 0
				}
				assigned[v] = true
				q.Push(v)
			}
		}
	}

	nodeViolations := func(u sgraph.NodeID) int {
		bad := 0
		ids := g.NeighborIDs(u)
		signs := g.NeighborSigns(u)
		for i, v := range ids {
			same := camp[u] == camp[v]
			if same != (signs[i] == sgraph.Positive) {
				bad++
			}
		}
		return bad
	}

	// Local search: flip any node whose flip strictly reduces its own
	// violation count; repeat to a fixed point (bounded passes).
	for pass := 0; pass < 16; pass++ {
		improved := false
		for u := sgraph.NodeID(0); int(u) < n; u++ {
			before := nodeViolations(u)
			camp[u] ^= 1
			after := nodeViolations(u)
			if after < before {
				improved = true
			} else {
				camp[u] ^= 1
			}
		}
		if !improved {
			break
		}
	}

	total := 0
	for _, e := range g.Edges() {
		same := camp[e.U] == camp[e.V]
		if same != (e.Sign == sgraph.Positive) {
			total++
		}
	}
	return camp, total
}
