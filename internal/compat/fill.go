package compat

import (
	"errors"
	"math/bits"
	"slices"

	"repro/internal/balance"
	"repro/internal/sgraph"
	"repro/internal/signedbfs"
)

// Distance-matrix packing: distances are stored as uint8 with noDist8
// meaning "undefined"; any value above maxDist8 forces the int32
// fallback, where noDist32 marks undefined entries.
const (
	noDist8  = 0xFF
	maxDist8 = 0xFE
	noDist32 = int32(-1)
)

// errDistOverflow aborts a uint8 build when a relation distance
// exceeds maxDist8; the builder retries with int32 storage.
var errDistOverflow = errors.New("compat: distance exceeds uint8 packing")

// slabView is a shard slab as a packed-relation fill writes it, rows
// addressed by their source id (base is the shard's first row): bit
// words (stride words per row) and distance lanes (n entries per row).
// Exactly one of d8 (uint8 packing) and d32 (wide packing) is non-nil.
type slabView struct {
	base, stride, n int
	bits            []uint64
	d8              []uint8
	d32             []int32
}

// view addresses the slab of the shard whose first row is base.
func (sl shardSlabs) view(base, stride, n int) slabView {
	return slabView{base: base, stride: stride, n: n, bits: sl.bits, d8: sl.dist8, d32: sl.dist32}
}

// row returns the bit words of source u's row.
func (b slabView) row(u sgraph.NodeID) []uint64 {
	i := int(u) - b.base
	return b.bits[i*b.stride : (i+1)*b.stride]
}

// setDist writes distance d to v into source u's row. It returns
// errDistOverflow when d does not fit the uint8 packing, so the caller
// can retry the build wide.
func (b slabView) setDist(u, v sgraph.NodeID, d int32) error {
	i := (int(u)-b.base)*b.n + int(v)
	if b.d32 != nil {
		b.d32[i] = d
		return nil
	}
	if d > maxDist8 {
		return errDistOverflow
	}
	b.d8[i] = uint8(d)
	return nil
}

// setDists writes every reachable entry of dist into source u's row.
func (b slabView) setDists(u sgraph.NodeID, dist []int32) error {
	for v, d := range dist {
		if d == signedbfs.Unreachable {
			continue
		}
		if err := b.setDist(u, sgraph.NodeID(v), d); err != nil {
			return err
		}
	}
	return nil
}

// fillRows fills slab with the rows [base, base+rows) of the engine's
// relation over g, in blocks of sources spread over the workers (one
// scratch each). Blocks shrink when the range is too short to give
// every worker a full one, so a small shard still fills in parallel,
// and a block never leaves the range.
// Every block overwrites its rows completely (bits and defined
// distances), sets the diagonal, and keeps tail bits (≥ n) zero so row
// popcounts are exact. Undefined distances keep the sentinel the slab
// was prefilled with.
//
// SPA, SPO, SPM, DPE and NNE fill up to signedbfs.MaxSources rows
// from one bit-parallel sweep of sg, g relabelled into the engine's
// locality order (see localityOrder): the range's sources are taken in
// that order, so a block's sources lie close together and share most
// of their frontiers, and the sweep's reads of sg stay close together.
// SPA and SPO take their bits and distances from the sweep, SPM runs
// it in counting mode and compares each source's path counts where
// both signs reach a node (recounting the block with CountPathsInto if
// a count outgrew the sweep's lanes), DPE and NNE keep their
// neighbour-list bits and take only the distances (a source is at
// distance d when either frontier bit reaches the node first at level
// d, so signs drop out). SBP/SBPH run their own per-source searches on
// g, one row per block.
func (m *ShardedMatrix) fillRows(g, sg *sgraph.Graph, slab shardSlabs, base, rows, workers int, scratches []*rowScratch) error {
	out := slab.view(base, m.stride, m.n)
	if sg == nil { // SBP, SBPH
		return parallelSweep(rows, workers, func(w, i int) error {
			return m.fillBalanceRow(g, out, sgraph.NodeID(base+i), scratches[w])
		})
	}
	// The range's sources by their ids in sg, their ranks in the
	// locality order: one pass over the order lists them ascending.
	srcs := make([]sgraph.NodeID, 0, rows)
	for r, u := range m.order {
		if int(u) >= base && int(u) < base+rows {
			srcs = append(srcs, sgraph.NodeID(r))
		}
	}
	height := signedbfs.MaxSources
	if per := (rows + workers - 1) / workers; per < height {
		height = max(per, 1)
	}
	blocks := (rows + height - 1) / height
	return parallelSweep(blocks, workers, func(w, b int) error {
		return m.fillSweepBlock(g, sg, out, srcs[b*height:min((b+1)*height, rows)], scratches[w])
	})
}

// localityOrder returns the node order the packed sweeps relabel g
// into: a BFS from the highest-degree node not yet placed, repeated
// until every node is placed, so components come in the degree order
// of their first node (ties by id) and each, an isolated node
// included, is one contiguous run of BFS layers. Nodes close in the
// order are close in g, which is what lets a block of consecutive
// ranks share its frontiers.
func localityOrder(g *sgraph.Graph) []sgraph.NodeID {
	n := g.NumNodes()
	byDegree := make([]sgraph.NodeID, n)
	for i := range byDegree {
		byDegree[i] = sgraph.NodeID(i)
	}
	slices.SortFunc(byDegree, func(a, b sgraph.NodeID) int {
		if d := g.Degree(b) - g.Degree(a); d != 0 {
			return d
		}
		return int(a - b)
	})
	order := make([]sgraph.NodeID, 0, n)
	placed := make([]bool, n)
	for _, root := range byDegree {
		if placed[root] {
			continue
		}
		placed[root] = true
		order = append(order, root)
		for head := len(order) - 1; head < len(order); head++ {
			for _, v := range g.NeighborIDs(order[head]) {
				if !placed[v] {
					placed[v] = true
					order = append(order, v)
				}
			}
		}
	}
	return order
}

// fillBalanceRow fills row u of an SBPH or SBP relation from one
// balance search.
func (m *ShardedMatrix) fillBalanceRow(g *sgraph.Graph, out slabView, u sgraph.NodeID, s *rowScratch) error {
	var pd *balance.PathDists
	if m.kind == SBPH {
		pd = balance.SBPH(g, u, m.beam)
	} else {
		var err error
		if pd, err = balance.ExactSBP(g, u, m.exact); err != nil {
			return err
		}
	}
	row := out.row(u)
	zeroWords(row)
	for v, d := range pd.PosDist {
		if d != balance.NoPath {
			setWordBit(row, sgraph.NodeID(v))
		}
	}
	setWordBit(row, u)
	if s.reach != nil {
		// The balance searches keep no plain-distance output, so the
		// footprint takes one extra BFS per row — only when reach
		// tracking is armed (multi-shard engines).
		s.dist = signedbfs.DistancesInto(g, u, s.dist, s.bfs)
		s.recordReach(s.dist)
	}
	if err := out.setDists(u, pd.PosDist); err != nil {
		return err
	}
	return out.setDist(u, u, 0)
}

// fillSweepBlock fills the rows of an SPA, SPO, SPM, DPE or NNE
// relation for srcs — at most signedbfs.MaxSources sources, named by
// their ids in sg, the locality-relabelled copy of g — from one
// multi-source sweep of sg, source srcs[j] riding bit j. Rows, columns
// and the footprint map back to g's ids through m.order; DPE/NNE
// neighbour bits and SPM's overflow recount read g itself.
func (m *ShardedMatrix) fillSweepBlock(g, sg *sgraph.Graph, out slabView, srcs []sgraph.NodeID, s *rowScratch) error {
	kind, order := m.kind, m.order
	if s.sweep == nil {
		s.sweep = signedbfs.NewMultiSweep(g.NumNodes())
	}
	// bitAt[j] and distAt[j] are where source j's row starts in out's
	// bit words and distance lanes.
	var bitAt, distAt [signedbfs.MaxSources]int
	for j, r := range srcs {
		u := order[r]
		row := out.row(u)
		if kind == DPE || kind == NNE {
			edgeWords(g, kind, u, row)
		} else { // SPA, SPO, SPM: bits come from the sweep
			zeroWords(row)
		}
		setWordBit(row, u) // reflexivity
		i := int(u) - out.base
		bitAt[j], distAt[j] = i*out.stride, i*out.n
	}

	// set = (p &^ (q & qm)) & pm picks the sources whose row gains the
	// level's node: SPO keeps p (some positive shortest path), SPA and
	// SPM p &^ q (every shortest path positive), DPE/NNE nothing. SPM
	// also gains the node for the sources in p & q whose positive
	// shortest paths are at least as many as the negative ones.
	var pm, qm uint64
	switch kind {
	case SPO:
		pm = ^uint64(0)
	case SPA, SPM:
		pm, qm = ^uint64(0), ^uint64(0)
	}
	sw := s.sweep
	var ok bool
	if kind == SPM {
		ok = sw.StartCounting(sg, srcs)
	} else {
		ok = sw.Start(sg, srcs)
	}
	for ; ok; ok = sw.Next() {
		d, level := sw.Level()
		if out.d32 == nil && d > maxDist8 {
			return errDistOverflow
		}
		for _, e := range level {
			v, p, q := int(order[e.Node]), e.Pos, e.Neg
			if out.d32 != nil {
				for b := p | q; b != 0; b &= b - 1 {
					out.d32[distAt[bits.TrailingZeros64(b)]+v] = d
				}
			} else {
				for b := p | q; b != 0; b &= b - 1 {
					out.d8[distAt[bits.TrailingZeros64(b)]+v] = uint8(d)
				}
			}
			w, mask := v>>6, uint64(1)<<uint(v&63)
			set := (p &^ (q & qm)) & pm
			if kind == SPM && p&q != 0 {
				set |= sw.Majority(e.Node, p&q)
			}
			for ; set != 0; set &= set - 1 {
				out.bits[bitAt[bits.TrailingZeros64(set)]+w] |= mask
			}
		}
	}
	if kind == SPM && sw.Overflowed() {
		m.recountBlock(g, out, srcs, s)
	}
	// The block's footprint: every node any of its sources saw.
	if s.reach != nil {
		for _, r := range sw.Reached() {
			v := order[r]
			s.reach[v>>6] |= 1 << uint(v&63)
		}
	}
	return nil
}

// recountBlock re-decides the both-signs entries of an SPM block whose
// counting sweep overflowed its 32-bit lane halves: one CountPathsInto
// per source over g (the lazy engine's own row path, saturating at
// 2^64) settles every node reached along shortest paths of both signs.
// The sweep's other bits, and every distance, are exact regardless.
func (m *ShardedMatrix) recountBlock(g *sgraph.Graph, out slabView, srcs []sgraph.NodeID, s *rowScratch) {
	for _, r := range srcs {
		u := m.order[r]
		row := out.row(u)
		signedbfs.CountPathsInto(g, u, &s.res, s.bfs)
		for v, pos := range s.res.Pos {
			if neg := s.res.Neg[v]; pos != 0 && neg != 0 {
				if pos >= neg {
					setWordBit(row, sgraph.NodeID(v))
				} else {
					clearWordBit(row, sgraph.NodeID(v))
				}
			}
		}
	}
}

// Word-slice bit helpers (rows are raw []uint64, not container.Bitset,
// to keep a shard's rows a single allocation).

func setWordBit(words []uint64, i sgraph.NodeID)   { words[int(i)>>6] |= 1 << uint(int(i)&63) }
func clearWordBit(words []uint64, i sgraph.NodeID) { words[int(i)>>6] &^= 1 << uint(int(i)&63) }

func zeroWords(words []uint64) {
	for i := range words {
		words[i] = 0
	}
}

// edgeWords writes u's DPE or NNE compatibility bits into words
// (reflexivity aside): DPE sets u's positive neighbours, NNE sets
// everyone except u's negative neighbours, unreachable nodes included.
func edgeWords(g *sgraph.Graph, kind Kind, u sgraph.NodeID, words []uint64) {
	signs := g.NeighborSigns(u)
	if kind == DPE {
		zeroWords(words)
		for i, v := range g.NeighborIDs(u) {
			if signs[i] == sgraph.Positive {
				setWordBit(words, v)
			}
		}
		return
	}
	fillWords(words, g.NumNodes())
	for i, v := range g.NeighborIDs(u) {
		if signs[i] == sgraph.Negative {
			clearWordBit(words, v)
		}
	}
}

// fillWords sets bits [0, n) and keeps the tail zero.
func fillWords(words []uint64, n int) {
	for i := range words {
		words[i] = ^uint64(0)
	}
	if tail := n & 63; tail != 0 {
		words[len(words)-1] = (1 << uint(tail)) - 1
	}
}
