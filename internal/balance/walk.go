package balance

import "repro/internal/sgraph"

// Walk is an incremental checker for structurally balanced simple
// paths. It maintains the camp (two-colouring) forced by walking the
// path and verifies, on every extension, that all edges of G induced
// between the new endpoint and earlier path nodes agree with the
// forced camps. Extensions that would break balance are rejected, and
// the walk is unchanged.
//
// The check is sound and complete: the path spans its own node set, so
// the induced subgraph has a valid two-camp split iff the forced walk
// colouring is one (up to the global flip), and edges between earlier
// nodes were verified when their later endpoint joined the walk.
type Walk struct {
	g     *sgraph.Graph
	nodes []sgraph.NodeID
	camp  []uint8 // camp[i] of nodes[i]; camp[0] = 0
	pos   []int32 // pos[v] = index of v in nodes, or -1
	sign  sgraph.Sign
}

// NewWalk starts a walk at node start.
func NewWalk(g *sgraph.Graph, start sgraph.NodeID) *Walk {
	pos := make([]int32, g.NumNodes())
	for i := range pos {
		pos[i] = -1
	}
	w := &Walk{
		g:     g,
		nodes: []sgraph.NodeID{start},
		camp:  []uint8{0},
		pos:   pos,
		sign:  sgraph.Positive,
	}
	pos[start] = 0
	return w
}

// Len returns the number of edges in the walk (nodes − 1).
func (w *Walk) Len() int { return len(w.nodes) - 1 }

// Sign returns the product of the walk's edge signs.
func (w *Walk) Sign() sgraph.Sign { return w.sign }

// Head returns the current endpoint of the walk.
func (w *Walk) Head() sgraph.NodeID { return w.nodes[len(w.nodes)-1] }

// CanExtend reports whether appending v keeps the walk a simple,
// structurally balanced path. It requires an edge (Head, v).
func (w *Walk) CanExtend(v sgraph.NodeID) bool {
	if w.pos[v] >= 0 {
		return false // not simple
	}
	head := w.Head()
	s, ok := w.g.EdgeSign(head, v)
	if !ok {
		return false
	}
	campV := w.camp[len(w.nodes)-1]
	if s == sgraph.Negative {
		campV ^= 1
	}
	// Every edge from v back into the walk must agree with the camps.
	ids := w.g.NeighborIDs(v)
	signs := w.g.NeighborSigns(v)
	for i, u := range ids {
		pu := w.pos[u]
		if pu < 0 {
			continue
		}
		same := w.camp[pu] == campV
		if same != (signs[i] == sgraph.Positive) {
			return false
		}
	}
	return true
}

// Extend appends v when CanExtend(v); it reports whether the
// extension happened.
func (w *Walk) Extend(v sgraph.NodeID) bool {
	if !w.CanExtend(v) {
		return false
	}
	head := w.Head()
	s, _ := w.g.EdgeSign(head, v)
	campV := w.camp[len(w.nodes)-1]
	if s == sgraph.Negative {
		campV ^= 1
	}
	w.pos[v] = int32(len(w.nodes))
	w.nodes = append(w.nodes, v)
	w.camp = append(w.camp, campV)
	w.sign *= s
	return true
}

// Retract removes the walk's endpoint (not the start).
func (w *Walk) Retract() {
	if len(w.nodes) <= 1 {
		panic("balance: Retract past the walk start")
	}
	last := len(w.nodes) - 1
	head := w.nodes[last]
	prev := w.nodes[last-1]
	s, _ := w.g.EdgeSign(prev, head)
	w.sign *= s // signs are ±1, so multiplying again undoes the edge
	w.pos[head] = -1
	w.nodes = w.nodes[:last]
	w.camp = w.camp[:last]
}
