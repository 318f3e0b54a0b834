// Dynamic signed graphs: an epoch-versioned mutable wrapper over the
// immutable CSR Graph. Graph itself stays immutable — every mutation
// derives a fresh Graph by structural sharing (a flip copies only the
// sign slab; add/remove splice the CSR arrays once, O(V+E)) and
// publishes it atomically together with a monotonically increasing
// epoch. Readers therefore never observe a half-applied mutation: a
// Snapshot call returns one (graph, epoch) pair, and any Graph obtained
// from it stays valid and internally consistent forever.
//
// The compat engines build on this contract: they hold a Dynamic,
// invalidate derived state (cached rows, matrix slabs, shards) when the
// epoch moves, and keep serving old readers from the old snapshots,
// which the garbage collector retains for as long as anyone points at
// them.

package sgraph

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Mutation errors, distinguishable by errors.Is so callers (the serving
// layer's /mutate endpoint, the CLI mutation scripts) can map them to
// client-error responses rather than 5xx.
var (
	// ErrEdgeExists reports MutAdd on a pair that already has an edge
	// (flip the sign with MutFlip instead of re-adding).
	ErrEdgeExists = errors.New("sgraph: edge already exists")
	// ErrNoSuchEdge reports MutRemove or MutFlip on a pair with no
	// edge.
	ErrNoSuchEdge = errors.New("sgraph: no such edge")
)

// MutOp enumerates the edge mutations a Dynamic graph supports.
type MutOp uint8

// The mutation operations. The zero MutOp is invalid so a forgotten op
// is caught at Apply time.
const (
	MutAdd MutOp = iota + 1 // insert a signed edge
	MutRemove
	MutFlip // negate an existing edge's sign
)

// String returns the operation's wire name ("add", "remove", "flip").
func (op MutOp) String() string {
	switch op {
	case MutAdd:
		return "add"
	case MutRemove:
		return "remove"
	case MutFlip:
		return "flip"
	default:
		return fmt.Sprintf("MutOp(%d)", uint8(op))
	}
}

// Mutation is one edge-level change to a dynamic signed graph. Sign is
// consulted only by MutAdd; Remove and Flip ignore it.
type Mutation struct {
	Op   MutOp
	U, V NodeID
	Sign Sign
}

// String formats the mutation for logs ("flip(3,7)", "add(1,2,+)").
func (m Mutation) String() string {
	if m.Op == MutAdd {
		return fmt.Sprintf("%v(%d,%d,%v)", m.Op, m.U, m.V, m.Sign)
	}
	return fmt.Sprintf("%v(%d,%d)", m.Op, m.U, m.V)
}

// graphEpoch is one published (graph, epoch) pair — a single pointer so
// Snapshot reads both atomically.
type graphEpoch struct {
	g     *Graph
	epoch uint64
}

// Dynamic is a mutable signed graph with an epoch per published
// version. Mutations are serialised by an internal mutex; reads
// (Snapshot, Graph, Epoch) are lock-free atomic loads and safe from any
// goroutine. The node set is fixed at construction — mutations are
// edge-level, which is what keeps every derived engine's geometry
// (shard layout, bit-row stride) stable across epochs.
type Dynamic struct {
	mu  sync.Mutex // serialises Apply
	cur atomic.Pointer[graphEpoch]
}

// NewDynamic wraps g as epoch 0 of a dynamic graph. g must not be
// mutated by the caller afterwards (Graph is immutable by convention;
// Dynamic relies on it).
func NewDynamic(g *Graph) *Dynamic {
	d := &Dynamic{}
	d.cur.Store(&graphEpoch{g: g, epoch: 0})
	return d
}

// Snapshot returns the current graph and its epoch as one consistent
// pair. The returned graph is immutable and remains valid across later
// mutations.
func (d *Dynamic) Snapshot() (*Graph, uint64) {
	ge := d.cur.Load()
	return ge.g, ge.epoch
}

// Graph returns the current graph snapshot.
func (d *Dynamic) Graph() *Graph { return d.cur.Load().g }

// Epoch returns the current epoch: 0 at construction, +1 per applied
// mutation.
func (d *Dynamic) Epoch() uint64 { return d.cur.Load().epoch }

// Apply validates and applies m, publishing a new graph snapshot under
// the next epoch. On error nothing is published and the epoch does not
// move. It returns the new snapshot and its epoch.
func (d *Dynamic) Apply(m Mutation) (*Graph, uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.cur.Load()
	g := cur.g
	if err := validateEndpoints(g, m.U, m.V); err != nil {
		return nil, 0, err
	}
	var next *Graph
	switch m.Op {
	case MutAdd:
		if !m.Sign.Valid() {
			return nil, 0, fmt.Errorf("sgraph: invalid sign %d on add(%d,%d)", int8(m.Sign), m.U, m.V)
		}
		if g.HasEdge(m.U, m.V) {
			return nil, 0, fmt.Errorf("%w: (%d,%d)", ErrEdgeExists, m.U, m.V)
		}
		next = g.withAdded(m.U, m.V, m.Sign)
	case MutRemove:
		if !g.HasEdge(m.U, m.V) {
			return nil, 0, fmt.Errorf("%w: (%d,%d)", ErrNoSuchEdge, m.U, m.V)
		}
		next = g.withRemoved(m.U, m.V)
	case MutFlip:
		if !g.HasEdge(m.U, m.V) {
			return nil, 0, fmt.Errorf("%w: (%d,%d)", ErrNoSuchEdge, m.U, m.V)
		}
		next = g.withFlipped(m.U, m.V)
	default:
		return nil, 0, fmt.Errorf("sgraph: unknown mutation op %d", uint8(m.Op))
	}
	epoch := cur.epoch + 1
	d.cur.Store(&graphEpoch{g: next, epoch: epoch})
	return next, epoch, nil
}

func validateEndpoints(g *Graph, u, v NodeID) error {
	n := NodeID(g.NumNodes())
	switch {
	case u == v:
		return fmt.Errorf("sgraph: self-loop mutation on node %d", u)
	case u < 0 || u >= n || v < 0 || v >= n:
		return fmt.Errorf("sgraph: mutation endpoints (%d,%d) out of range [0,%d)", u, v, n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Copy-on-write derivations. Each returns a fresh Graph sharing as much
// of the receiver's storage as immutability allows.

// withFlipped returns a copy of g with edge (u,v)'s sign negated. The
// offsets and neighbour slabs are shared (adjacency is unchanged); only
// the sign slab is copied, with the two directed entries rewritten.
func (g *Graph) withFlipped(u, v NodeID) *Graph {
	signs := append([]Sign(nil), g.signs...)
	old := flipDirected(g, signs, u, v)
	flipDirected(g, signs, v, u)
	numNeg := g.numNeg
	if old == Negative {
		numNeg--
	} else {
		numNeg++
	}
	return &Graph{offsets: g.offsets, neigh: g.neigh, signs: signs, numEdge: g.numEdge, numNeg: numNeg}
}

// flipDirected negates the sign of directed entry (u → v) in signs and
// returns the previous sign. The entry must exist.
func flipDirected(g *Graph, signs []Sign, u, v NodeID) Sign {
	lo, hi := int(g.offsets[u]), int(g.offsets[u+1])
	for i := lo; i < hi; i++ {
		if g.neigh[i] == v {
			old := signs[i]
			signs[i] = -old
			return old
		}
	}
	panic(fmt.Sprintf("sgraph: flipDirected(%d,%d): edge absent", u, v))
}

// withAdded returns a copy of g with the signed edge (u,v) spliced into
// both adjacency lists (kept sorted). One O(V+E) pass.
func (g *Graph) withAdded(u, v NodeID, s Sign) *Graph {
	n := g.NumNodes()
	offsets := make([]int32, n+1)
	neigh := make([]NodeID, len(g.neigh)+2)
	signs := make([]Sign, len(g.signs)+2)
	pos := int32(0)
	for w := 0; w < n; w++ {
		offsets[w] = pos
		lo, hi := g.offsets[w], g.offsets[w+1]
		var ins NodeID = -1
		if NodeID(w) == u {
			ins = v
		} else if NodeID(w) == v {
			ins = u
		}
		for i := lo; i < hi; i++ {
			if ins >= 0 && g.neigh[i] > ins {
				neigh[pos], signs[pos] = ins, s
				pos++
				ins = -1
			}
			neigh[pos], signs[pos] = g.neigh[i], g.signs[i]
			pos++
		}
		if ins >= 0 {
			neigh[pos], signs[pos] = ins, s
			pos++
		}
	}
	offsets[n] = pos
	numNeg := g.numNeg
	if s == Negative {
		numNeg++
	}
	return &Graph{offsets: offsets, neigh: neigh, signs: signs, numEdge: g.numEdge + 1, numNeg: numNeg}
}

// withRemoved returns a copy of g with edge (u,v) dropped from both
// adjacency lists. One O(V+E) pass.
func (g *Graph) withRemoved(u, v NodeID) *Graph {
	n := g.NumNodes()
	old, _ := g.EdgeSign(u, v)
	offsets := make([]int32, n+1)
	neigh := make([]NodeID, len(g.neigh)-2)
	signs := make([]Sign, len(g.signs)-2)
	pos := int32(0)
	for w := 0; w < n; w++ {
		offsets[w] = pos
		lo, hi := g.offsets[w], g.offsets[w+1]
		var skip NodeID = -1
		if NodeID(w) == u {
			skip = v
		} else if NodeID(w) == v {
			skip = u
		}
		for i := lo; i < hi; i++ {
			if g.neigh[i] == skip {
				continue
			}
			neigh[pos], signs[pos] = g.neigh[i], g.signs[i]
			pos++
		}
	}
	offsets[n] = pos
	numNeg := g.numNeg
	if old == Negative {
		numNeg--
	}
	return &Graph{offsets: offsets, neigh: neigh, signs: signs, numEdge: g.numEdge - 1, numNeg: numNeg}
}
