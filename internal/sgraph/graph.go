// Package sgraph implements the undirected signed graph that every
// algorithm in this repository runs on: a compact CSR (compressed
// sparse row) adjacency structure whose edges carry a +1/−1 sign, as in
// "Forming Compatible Teams in Signed Networks" (EDBT 2020).
//
// Graphs are immutable once built. Construction goes through Builder,
// which validates signs, rejects self-loops and contradictory duplicate
// edges, and produces sorted adjacency lists so that edge-sign lookups
// are O(log degree).
//
// Mutation happens one level up: Dynamic (dynamic.go) wraps a Graph and
// applies edge Mutations (add / remove / flip) by deriving a fresh
// immutable Graph with structural sharing, publishing it atomically
// under a monotonically increasing epoch. Readers snapshot a
// (graph, epoch) pair and are never exposed to a half-applied change.
package sgraph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node. Nodes are dense integers in [0, NumNodes).
type NodeID = int32

// Sign is the label of an edge: Positive (+1, friends) or Negative
// (−1, foes).
type Sign int8

// Edge sign values. The zero Sign is invalid so that a forgotten sign
// is caught at build time.
const (
	Positive Sign = +1
	Negative Sign = -1
)

// String returns "+" or "−" (or "?" for an invalid sign).
func (s Sign) String() string {
	switch s {
	case Positive:
		return "+"
	case Negative:
		return "-"
	default:
		return "?"
	}
}

// Valid reports whether s is Positive or Negative.
func (s Sign) Valid() bool { return s == Positive || s == Negative }

// Edge is an undirected signed edge. U < V canonically in edge
// listings produced by Graph.Edges.
type Edge struct {
	U, V NodeID
	Sign Sign
}

// Graph is an immutable undirected signed graph in CSR form.
type Graph struct {
	offsets []int32 // len = n+1; adjacency of u is [offsets[u], offsets[u+1])
	neigh   []NodeID
	signs   []Sign
	numEdge int // undirected edge count
	numNeg  int // undirected negative edge count
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdge }

// NumNegativeEdges returns the number of undirected negative edges.
func (g *Graph) NumNegativeEdges() int { return g.numNeg }

// NumPositiveEdges returns the number of undirected positive edges.
func (g *Graph) NumPositiveEdges() int { return g.numEdge - g.numNeg }

// Degree returns the number of neighbours of u.
func (g *Graph) Degree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors calls fn for every neighbour v of u with the sign of
// (u,v), in increasing v order. fn returning false stops the walk.
func (g *Graph) Neighbors(u NodeID, fn func(v NodeID, s Sign) bool) {
	for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
		if !fn(g.neigh[i], g.signs[i]) {
			return
		}
	}
}

// NeighborIDs returns the neighbour list of u as a shared slice. The
// caller must not modify it.
func (g *Graph) NeighborIDs(u NodeID) []NodeID {
	return g.neigh[g.offsets[u]:g.offsets[u+1]]
}

// NeighborSigns returns the signs parallel to NeighborIDs(u). The
// caller must not modify it.
func (g *Graph) NeighborSigns(u NodeID) []Sign {
	return g.signs[g.offsets[u]:g.offsets[u+1]]
}

// CSR returns the graph's compressed adjacency: the neighbours of u
// are neigh[offsets[u]:offsets[u+1]], with their signs at the same
// positions of signs. Hot traversal loops hold the three slices in
// locals instead of re-deriving them through NeighborIDs per node.
// The caller must not modify them.
func (g *Graph) CSR() (offsets []int32, neigh []NodeID, signs []Sign) {
	return g.offsets, g.neigh, g.signs
}

// smallDegreeScan is the degree below which EdgeSign scans the sorted
// adjacency list linearly: for a handful of neighbours the scan beats
// sort.Search's closure-call overhead.
const smallDegreeScan = 8

// EdgeSign returns the sign of edge (u,v) and whether that edge
// exists. It runs in O(log degree(u)), with a linear scan on
// small-degree nodes.
func (g *Graph) EdgeSign(u, v NodeID) (Sign, bool) {
	lo, hi := int(g.offsets[u]), int(g.offsets[u+1])
	if hi-lo <= smallDegreeScan {
		for i := lo; i < hi; i++ {
			switch w := g.neigh[i]; {
			case w == v:
				return g.signs[i], true
			case w > v: // sorted adjacency: v cannot appear later
				return 0, false
			}
		}
		return 0, false
	}
	i := lo + sort.Search(hi-lo, func(i int) bool { return g.neigh[lo+i] >= v })
	if i < hi && g.neigh[i] == v {
		return g.signs[i], true
	}
	return 0, false
}

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeSign(u, v)
	return ok
}

// Edges returns all undirected edges with U < V, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.numEdge)
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			if v := g.neigh[i]; u < v {
				edges = append(edges, Edge{U: u, V: v, Sign: g.signs[i]})
			}
		}
	}
	return edges
}

// Relabel returns a copy of g with its nodes renumbered: new node i is
// old node order[i], so edge (order[i], order[j]) of g is edge (i, j)
// of the copy, with the same sign. order must be a permutation of
// 0..NumNodes()-1. Traversals that visit nodes in order's sequence
// then walk the copy's arrays front to back. Adjacency lists stay
// sorted, built in one pass with no sort.
func (g *Graph) Relabel(order []NodeID) *Graph {
	n := g.NumNodes()
	if len(order) != n {
		panic(fmt.Sprintf("sgraph: Relabel with %d ids for %d nodes", len(order), n))
	}
	rank := make([]NodeID, n)
	offsets := make([]int32, n+1)
	for i, u := range order {
		rank[u] = NodeID(i)
		offsets[i+1] = offsets[i] + int32(g.Degree(u))
	}
	neigh := make([]NodeID, offsets[n])
	signs := make([]Sign, offsets[n])
	cursor := slices.Clone(offsets[:n])
	// Appending every new id i to its neighbours' lists in increasing i
	// leaves each list sorted.
	for i, u := range order {
		for e := g.offsets[u]; e < g.offsets[u+1]; e++ {
			w := rank[g.neigh[e]]
			neigh[cursor[w]], signs[cursor[w]] = NodeID(i), g.signs[e]
			cursor[w]++
		}
	}
	return &Graph{offsets: offsets, neigh: neigh, signs: signs, numEdge: g.numEdge, numNeg: g.numNeg}
}

// String summarises the graph for logs and error messages.
func (g *Graph) String() string {
	return fmt.Sprintf("sgraph.Graph{nodes: %d, edges: %d, negative: %d}",
		g.NumNodes(), g.NumEdges(), g.NumNegativeEdges())
}

// Builder accumulates edges and produces an immutable Graph.
//
// The builder enforces the paper's model: a simple undirected graph
// with every edge labelled +1 or −1. Adding the same edge twice with
// the same sign is idempotent; with a different sign it is an error.
type Builder struct {
	n     int
	edges map[[2]NodeID]Sign
	err   error
}

// NewBuilder returns a builder for a graph with n nodes 0..n-1.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, edges: make(map[[2]NodeID]Sign)}
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return b.n }

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// AddNode appends a fresh node and returns its id.
func (b *Builder) AddNode() NodeID {
	id := NodeID(b.n)
	b.n++
	return id
}

// AddEdge records the undirected signed edge (u,v). The first error
// encountered is sticky and reported by Build.
func (b *Builder) AddEdge(u, v NodeID, s Sign) {
	if b.err != nil {
		return
	}
	switch {
	case u == v:
		b.err = fmt.Errorf("sgraph: self-loop on node %d", u)
	case u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n:
		b.err = fmt.Errorf("sgraph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	case !s.Valid():
		b.err = fmt.Errorf("sgraph: invalid sign %d on edge (%d,%d)", int8(s), u, v)
	default:
		key := edgeKey(u, v)
		if prev, ok := b.edges[key]; ok && prev != s {
			b.err = fmt.Errorf("sgraph: edge (%d,%d) added with both signs", u, v)
			return
		}
		b.edges[key] = s
	}
}

// HasEdge reports whether (u,v) has been added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	_, ok := b.edges[edgeKey(u, v)]
	return ok
}

// Build finalises the graph. The builder remains usable afterwards;
// further AddEdge calls affect only subsequent Build calls.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n
	deg := make([]int32, n+1)
	for key := range b.edges {
		deg[key[0]+1]++
		deg[key[1]+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	offsets := deg
	cursor := make([]int32, n)
	neigh := make([]NodeID, 2*len(b.edges))
	signs := make([]Sign, 2*len(b.edges))
	numNeg := 0
	for key, s := range b.edges {
		u, v := key[0], key[1]
		neigh[offsets[u]+cursor[u]] = v
		signs[offsets[u]+cursor[u]] = s
		cursor[u]++
		neigh[offsets[v]+cursor[v]] = u
		signs[offsets[v]+cursor[v]] = s
		cursor[v]++
		if s == Negative {
			numNeg++
		}
	}
	g := &Graph{offsets: offsets, neigh: neigh, signs: signs, numEdge: len(b.edges), numNeg: numNeg}
	g.sortAdjacency()
	return g, nil
}

// MustBuild is Build that panics on error, for tests and literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Graph) sortAdjacency() {
	for u := 0; u < g.NumNodes(); u++ {
		lo, hi := int(g.offsets[u]), int(g.offsets[u+1])
		block := adjBlock{ids: g.neigh[lo:hi], signs: g.signs[lo:hi]}
		sort.Sort(block)
	}
}

type adjBlock struct {
	ids   []NodeID
	signs []Sign
}

func (a adjBlock) Len() int           { return len(a.ids) }
func (a adjBlock) Less(i, j int) bool { return a.ids[i] < a.ids[j] }
func (a adjBlock) Swap(i, j int) {
	a.ids[i], a.ids[j] = a.ids[j], a.ids[i]
	a.signs[i], a.signs[j] = a.signs[j], a.signs[i]
}

func edgeKey(u, v NodeID) [2]NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]NodeID{u, v}
}

// FromEdges builds a graph with n nodes from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.Sign)
	}
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error, for tests and
// hand-written example graphs.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
