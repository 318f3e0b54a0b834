package signedbfs

import (
	"math/bits"

	"repro/internal/sgraph"
)

// MaxSources is the number of sources one MultiSweep traversal carries:
// one per bit of a machine word.
const MaxSources = 64

// MultiSweep is the bit-parallel form of the signed BFS: up to 64
// sources share one level-synchronous traversal, source j riding bit j
// of every word (the multi-source BFS of Then et al., "The More the
// Merrier", VLDB 2015, with a sign bit added). It answers the yes/no
// questions SPA and SPO ask of Algorithm 1 — does some positive
// (negative) shortest path reach v — and every shortest-path length.
// Started with StartCounting it also counts the paths, for SPM's
// majority test; see Majority.
//
// Each node keeps three words: the sources that have seen it, and the
// positive and negative frontier bits of the current level (the latter
// two in the level's compact entry list). A positive edge carries the
// positive frontier to the positive and the negative to the negative;
// a negative edge swaps them. Bits first reached at level d belong to
// sources at distance d, and the positive (negative) bit of such a
// source is exactly CountPathsInto's Pos > 0 (Neg > 0), because both
// are ORs over the same shortest-path predecessors.
//
// In counting mode every (node, source) pair also carries a path
// counter lane, one uint64 packing the positive count in its low 32
// bits and the negative count in its high 32, and Next runs
// pushCountLevel, a second copy of the frontier loop that counts
// during the push: an edge u→v lies on source j's shortest-path DAG
// exactly when j is in u's entry and first reaches v one level
// further, and there the push does what CountPathsInto does along the
// edge — the level's first such edge sets lane j of v to u's lane, its
// halves swapped across a negative edge (a rotate by 32), and later
// ones add into it. While every half stays below 2^31 the halves of a
// sum stay below 2^32, so no carry crosses them and every lane equals
// CountPathsInto's Pos[v] and Neg[v] exactly. The sweep ORs every
// stored value into one word and reports, through Overflowed, any half
// that reached 2^31; past that point its lanes are unspecified and the
// caller recounts what it needs with CountPathsInto. The bits-only
// loop (pushLevel) has no counting code in it, so the sweeps that only
// need the bits do not pay for it.
//
// The sweep is frontier-driven: only nodes on some source's current
// frontier push, so a node scans its adjacency at most once per level
// at which some source first reaches it — never more often than the
// sources' one-by-one traversals would scan it in total.
//
// Usage, with the current level read between steps:
//
//	for ok := sw.Start(g, srcs); ok; ok = sw.Next() {
//		d, level := sw.Level()
//		...
//	}
//
// A warm MultiSweep (sized for the graph, and for counting once it
// has counted) performs no heap allocations. It is not safe for
// concurrent use.
type MultiSweep struct {
	g     *sgraph.Graph
	depth int32

	// Per-node state, indexed by node id. seen is non-zero only on the
	// nodes listed in touched[:nTouched], which is how Start forgets a
	// sweep without an O(n) clear.
	nodes    []sweepNode
	touched  []sgraph.NodeID
	nTouched int
	stamp    uint32 // the level being built; see sweepNode

	// The current level and the spare buffer the next is built in.
	level, spare []Entry

	// counts holds one packed path-counter lane (Pos | Neg<<32) per
	// node and source of the counting sweep, node v's at
	// [v*lanes, (v+1)*lanes) so an edge reads and writes one contiguous
	// run per endpoint: 8·lanes bytes per node, grown only when a sweep
	// needs more. Lane j of v is set by the first DAG edge of the level
	// at which source j reaches v, summed over that level's push and
	// only read after, so the slab is never cleared. counting makes
	// Next run pushCountLevel; sums ORs every value the sweep stored,
	// for Overflowed.
	counts   []uint64
	lanes    int
	counting bool
	sums     uint64
}

// sweepNode is one node's state, packed so a push touches one cache
// line: the sources that have seen it and, when stamp equals the
// sweep's current stamp, the slot of its entry in the level being
// built (so its bits from several frontier neighbours merge into one
// entry) and prev, the sources that had seen it before that level (so
// a later push filters only by those and still merges its signs). The
// stamp advances once per level, so it never needs clearing (barring
// wrap-around).
type sweepNode struct {
	seen, prev uint64
	stamp      uint32
	slot       int32
}

// Entry is one node of a sweep level: Pos and Neg hold the sources
// first reaching Node at this level along some positive and some
// negative shortest path. Pos|Neg is exactly the set of sources at the
// level's distance from Node, and never zero.
type Entry struct {
	Pos, Neg uint64
	Node     sgraph.NodeID
}

// NewMultiSweep returns a MultiSweep sized for graphs of up to n
// nodes; it grows automatically if later started on a larger graph.
func NewMultiSweep(n int) *MultiSweep {
	s := &MultiSweep{}
	s.grow(n)
	return s
}

// grow sizes every buffer for n nodes. A level never holds more than n
// entries (its nodes are distinct), and touched never more than n.
func (s *MultiSweep) grow(n int) {
	s.nodes = make([]sweepNode, n)
	s.touched = make([]sgraph.NodeID, n)
	s.nTouched = 0
	s.stamp = 0
	s.level = make([]Entry, 0, n)
	s.spare = make([]Entry, 0, n)
}

// Start begins a sweep of g from srcs — at most MaxSources nodes, in
// any order, source j carried by bit j — and makes level 0 (the
// sources themselves, each with its positive bit) the current level.
// A node listed twice carries both bits. It reports whether there is a
// level to read, i.e. whether srcs is non-empty; it panics when srcs
// holds more than MaxSources nodes.
//
//tfsn:noalloc
func (s *MultiSweep) Start(g *sgraph.Graph, srcs []sgraph.NodeID) bool {
	return s.start(g, srcs, false)
}

// StartCounting is Start with path counting armed: every level of the
// sweep also leaves each source's positive and negative shortest-path
// counts at the level's nodes, for Majority, exact unless Overflowed.
// A source's lane starts at 1 (one positive path, none negative). The
// counters take 8·len(srcs) bytes per node of g, kept for later sweeps
// of at most as many lanes.
//
//tfsn:noalloc
func (s *MultiSweep) StartCounting(g *sgraph.Graph, srcs []sgraph.NodeID) bool {
	s.lanes = len(srcs)
	if need := g.NumNodes() * s.lanes; len(s.counts) < need {
		s.growCounts(need) // cold: a warm counting sweep never grows
	}
	return s.start(g, srcs, true)
}

// growCounts sizes the counter slab for need lanes.
func (s *MultiSweep) growCounts(need int) { s.counts = make([]uint64, need) }

// start resets the sweep and lays out level 0, seeding each source's
// counter lane when counting.
//
//tfsn:noalloc
func (s *MultiSweep) start(g *sgraph.Graph, srcs []sgraph.NodeID, counting bool) bool {
	if len(srcs) > MaxSources {
		panic("signedbfs: MultiSweep.Start with more than 64 sources")
	}
	if n := g.NumNodes(); len(s.nodes) < n {
		s.grow(n) // cold: a warm sweep never grows
	}
	for _, v := range s.touched[:s.nTouched] {
		s.nodes[v].seen = 0
	}
	s.nTouched = 0
	s.g = g
	s.depth = 0
	s.counting = counting
	s.sums = 0
	st := s.nextStamp()
	next := s.spare[:cap(s.spare)]
	k := int32(0)
	for j, v := range srcs {
		bit := uint64(1) << uint(j)
		nd := &s.nodes[v]
		if nd.seen == 0 {
			s.touched[s.nTouched] = v
			s.nTouched++
		}
		nd.seen |= bit
		if counting {
			s.counts[int(v)*s.lanes+j] = 1
		}
		if nd.stamp != st {
			nd.stamp, nd.slot = st, k
			next[k] = Entry{Pos: bit, Node: v}
			k++
		} else {
			next[nd.slot].Pos |= bit
		}
	}
	s.spare, s.level = s.level, next[:k]
	return k > 0
}

// Next advances the sweep one level: every node of the current level
// pushes its frontier bits to its neighbours, and the bits that reach
// a node for the first time form the new level. It reports whether
// the new level is non-empty; once it returns false the sweep is over.
//
//tfsn:noalloc
func (s *MultiSweep) Next() bool {
	if s.counting {
		return s.pushCountLevel()
	}
	return s.pushLevel()
}

// pushLevel is Next's frontier step. It calls nothing inside its loop,
// which keeps the loop's state in registers.
//
//tfsn:noalloc
func (s *MultiSweep) pushLevel() bool {
	// The CSR arrays and the sweep's buffers live in locals: the loop's
	// stores could otherwise alias the structs' slice headers and force
	// a reload per node.
	off, adj, sgn := s.g.CSR()
	nodes := s.nodes
	touched, nt := s.touched, s.nTouched
	st := s.nextStamp()
	next := s.spare[:cap(s.spare)]
	k := int32(0)
	for _, en := range s.level {
		p, q := en.Pos, en.Neg
		lo, hi := off[en.Node], off[en.Node+1]
		ids, signs := adj[lo:hi], sgn[lo:hi]
		signs = signs[:len(ids)]
		for e, v := range ids {
			// A negative edge swaps the frontier pair: m is all ones
			// for a negative sign, zero for a positive one.
			m := uint64(int64(signs[e]) >> 63)
			x := (p ^ q) & m
			nd := &nodes[v]
			if nd.stamp != st {
				// v's first push this level: everything it has seen is
				// from earlier levels.
				old := nd.seen
				fresh := (p | q) &^ old
				if fresh == 0 {
					continue // every source on this frontier already saw v
				}
				if old == 0 {
					touched[nt] = v
					nt++
				}
				nd.seen, nd.prev = old|fresh, old
				nd.stamp, nd.slot = st, k
				next[k] = Entry{Pos: (p ^ x) & fresh, Neg: (q ^ x) & fresh, Node: v}
				k++
				continue
			}
			// v already joined this level: merge, filtering only by the
			// bits v had seen before this level — a second shortest-path
			// predecessor may bring a source already in the entry with
			// the other sign.
			fresh := (p | q) &^ nd.prev
			if fresh == 0 {
				continue
			}
			nd.seen |= fresh
			ne := &next[nd.slot]
			ne.Pos |= (p ^ x) & fresh
			ne.Neg |= (q ^ x) & fresh
		}
	}
	s.nTouched = nt
	s.depth++
	s.spare, s.level = s.level, next[:k]
	return k > 0
}

// pushCountLevel is Next's frontier step in counting mode: pushLevel's
// loop, plus the path-counter update along every edge u→v that lies on
// some source's shortest-path DAG — the sources of u's entry that are
// new at v this level (fresh, exactly the bits the push merges in).
// The first such edge of the level sets v's lane to u's lane, its
// halves swapped across a negative edge (a rotate by 32); every later
// one adds into it. These are exactly CountPathsInto's additions along
// the same edges, and a lane is never read at the level it is written
// (u's lanes belong to the old level, v's to the new). Every stored
// value is OR-ed into sums. Like pushLevel it calls nothing inside its
// loop.
//
//tfsn:noalloc
func (s *MultiSweep) pushCountLevel() bool {
	off, adj, sgn := s.g.CSR()
	nodes, counts, w := s.nodes, s.counts, s.lanes
	touched, nt := s.touched, s.nTouched
	sums := s.sums
	st := s.nextStamp()
	next := s.spare[:cap(s.spare)]
	k := int32(0)
	for _, en := range s.level {
		p, q := en.Pos, en.Neg
		cu := counts[int(en.Node)*w:][:w]
		lo, hi := off[en.Node], off[en.Node+1]
		ids, signs := adj[lo:hi], sgn[lo:hi]
		signs = signs[:len(ids)]
		for e, v := range ids {
			m := uint64(int64(signs[e]) >> 63)
			x := (p ^ q) & m
			r := int(32 & m) // a negative edge swaps the lane halves
			nd := &nodes[v]
			// set: the DAG sources first meeting v at this edge; add:
			// those an earlier edge of this level already brought.
			var set, add uint64
			if nd.stamp != st {
				old := nd.seen
				fresh := (p | q) &^ old
				if fresh == 0 {
					continue
				}
				if old == 0 {
					touched[nt] = v
					nt++
				}
				nd.seen, nd.prev = old|fresh, old
				nd.stamp, nd.slot = st, k
				next[k] = Entry{Pos: (p ^ x) & fresh, Neg: (q ^ x) & fresh, Node: v}
				k++
				set = fresh
			} else {
				fresh := (p | q) &^ nd.prev
				if fresh == 0 {
					continue
				}
				set, add = fresh&^nd.seen, fresh&nd.seen
				nd.seen |= fresh
				ne := &next[nd.slot]
				ne.Pos |= (p ^ x) & fresh
				ne.Neg |= (q ^ x) & fresh
			}
			cv := counts[int(v)*w:][:w]
			for ; set != 0; set &= set - 1 {
				j := bits.TrailingZeros64(set)
				c := bits.RotateLeft64(cu[j], r)
				cv[j] = c
				sums |= c
			}
			for ; add != 0; add &= add - 1 {
				j := bits.TrailingZeros64(add)
				c := cv[j] + bits.RotateLeft64(cu[j], r)
				cv[j] = c
				sums |= c
			}
		}
	}
	s.nTouched = nt
	s.sums = sums
	s.depth++
	s.spare, s.level = s.level, next[:k]
	return k > 0
}

// nextStamp advances the level stamp, clearing every node's stamp on
// the (practically unreachable) wrap-around.
func (s *MultiSweep) nextStamp() uint32 {
	s.stamp++
	if s.stamp == 0 {
		for i := range s.nodes {
			s.nodes[i].stamp = 0
		}
		s.stamp = 1
	}
	return s.stamp
}

// Level returns the current level: its depth d and one entry per node
// some source first reaches at distance d. The slice is owned by the
// sweep and valid until the next Start or Next.
func (s *MultiSweep) Level() (d int32, level []Entry) { return s.depth, s.level }

// Majority returns the sources among both — bits of node v's entry in
// some level of a sweep begun with StartCounting — whose positive
// shortest paths to v are at least as many as the negative ones: the
// lanes whose Pos ≥ Neg. Unless the sweep has Overflowed, these are
// exactly the sources j for which CountPathsInto from j has
// Pos[v] ≥ Neg[v].
//
//tfsn:noalloc
func (s *MultiSweep) Majority(v sgraph.NodeID, both uint64) uint64 {
	c := s.counts[int(v)*s.lanes:][:s.lanes]
	var maj uint64
	for b := both; b != 0; b &= b - 1 {
		if j := bits.TrailingZeros64(b); uint32(c[j]) >= uint32(c[j]>>32) {
			maj |= b & -b
		}
	}
	return maj
}

// Overflowed reports whether a counting sweep has stored a count of
// 2^31 or more in some lane half so far. Until it does, every count is
// exact; after, Majority is unspecified for every lane (a half may
// have carried into its neighbour), and only the sign bits and
// distances of the levels remain exact.
func (s *MultiSweep) Overflowed() bool { return s.sums&(1<<31|1<<63) != 0 }
