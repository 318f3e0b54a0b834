package balance

import "repro/internal/sgraph"

// The walk accessors and the path check below are test oracles: the
// production walk is driven only through Extend/Retract/CanExtend.

// Nodes returns the walk's nodes in order as a shared slice; the
// caller must not modify or retain it across Extend/Retract.
func (w *Walk) Nodes() []sgraph.NodeID { return w.nodes }

// Contains reports whether v is on the walk.
func (w *Walk) Contains(v sgraph.NodeID) bool { return w.pos[v] >= 0 }

// IsBalancedPath reports whether the given node sequence is a simple
// path in g whose induced subgraph is balanced, together with the
// path's sign. Used by tests and by callers validating external paths.
func IsBalancedPath(g *sgraph.Graph, path []sgraph.NodeID) (ok bool, sign sgraph.Sign) {
	if len(path) == 0 {
		return false, 0
	}
	w := NewWalk(g, path[0])
	for _, v := range path[1:] {
		if !w.Extend(v) {
			return false, 0
		}
	}
	return true, w.Sign()
}
