package compat

import (
	"errors"
	"math/bits"

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

// blockView is one block of consecutive source rows of a shard slab,
// where a packed-relation fill lands them: their bit words (stride
// words per row) and their distance lanes (n entries per row). Exactly
// one of d8 (uint8 packing) and d32 (wide packing) is non-nil.
type blockView struct {
	stride, n int
	bits      []uint64
	d8        []uint8
	d32       []int32
}

// block views the slab rows [lo, hi) (slab-relative) as a blockView.
func (sl shardSlabs) block(lo, hi, stride, n int) blockView {
	out := blockView{stride: stride, n: n, bits: sl.bits[lo*stride : hi*stride]}
	if sl.dist32 != nil {
		out.d32 = sl.dist32[lo*n : hi*n]
	} else {
		out.d8 = sl.dist8[lo*n : hi*n]
	}
	return out
}

// row returns the bit words of the block's i-th row.
func (b blockView) row(i int) []uint64 { return b.bits[i*b.stride : (i+1)*b.stride] }

// setDist writes one distance into the block's i-th row. It returns
// errDistOverflow when d does not fit the uint8 packing, so the caller
// can retry the build wide.
func (b blockView) setDist(i int, v sgraph.NodeID, d int32) error {
	if b.d32 != nil {
		b.d32[i*b.n+int(v)] = d
		return nil
	}
	if d > maxDist8 {
		return errDistOverflow
	}
	b.d8[i*b.n+int(v)] = uint8(d)
	return nil
}

// setDists writes every reachable entry of dist into the block's i-th
// row.
func (b blockView) setDists(i int, dist []int32) error {
	for v, d := range dist {
		if d == signedbfs.Unreachable {
			continue
		}
		if err := b.setDist(i, sgraph.NodeID(v), d); err != nil {
			return err
		}
	}
	return nil
}

// fillRows fills slab with the rows [base, base+rows) of the engine's
// relation over g, in blocks of consecutive rows spread over the
// workers (one scratch each). Blocks shrink when the range is too
// short to give every worker a full one, so a small shard still fills
// in parallel, and a block never leaves the range.
// Every block overwrites its rows completely (bits and defined
// distances), sets the diagonal, and keeps tail bits (≥ n) zero so row
// popcounts are exact. Undefined distances keep the sentinel the slab
// was prefilled with.
//
// SPA, SPO, SPM, DPE and NNE fill up to signedbfs.MaxSources rows
// from one bit-parallel sweep: SPA and SPO take their bits and
// distances from it, SPM runs it in counting mode and compares each
// source's path counts where both signs reach a node (recounting the
// block with CountPathsInto if a count outgrew the sweep's lanes), DPE
// and NNE keep their neighbour-list bits and take only the distances
// (a source is at distance d when either frontier bit reaches the node
// first at level d, so signs drop out). SBP/SBPH run their own per-source
// searches, so those kinds fill one row per block.
func (m *ShardedMatrix) fillRows(g *sgraph.Graph, slab shardSlabs, base, rows, workers int, scratches []*rowScratch) error {
	balanced := m.kind == SBPH || m.kind == SBP
	height := signedbfs.MaxSources
	if balanced {
		height = 1
	}
	if per := (rows + workers - 1) / workers; per < height {
		height = max(per, 1)
	}
	blocks := (rows + height - 1) / height
	return parallelSweep(blocks, workers, func(w, b int) error {
		lo, hi := b*height, min((b+1)*height, rows)
		out := slab.block(lo, hi, m.stride, m.n)
		if balanced {
			return m.fillBalanceRow(g, out, sgraph.NodeID(base+lo), scratches[w])
		}
		return fillSweepBlock(g, m.kind, out, sgraph.NodeID(base+lo), sgraph.NodeID(base+hi), scratches[w])
	})
}

// fillBalanceRow fills row u of an SBPH or SBP relation, out's one row,
// from one balance search.
func (m *ShardedMatrix) fillBalanceRow(g *sgraph.Graph, out blockView, u sgraph.NodeID, s *rowScratch) error {
	var pd *balance.PathDists
	if m.kind == SBPH {
		pd = balance.SBPH(g, u, m.beam)
	} else {
		var err error
		if pd, err = balance.ExactSBP(g, u, m.exact); err != nil {
			return err
		}
	}
	row := out.row(0)
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
	if err := out.setDists(0, pd.PosDist); err != nil {
		return err
	}
	return out.setDist(0, u, 0)
}

// fillSweepBlock fills the rows [lo, hi) (at most
// signedbfs.MaxSources of them, landing in out) of an SPA, SPO, SPM,
// DPE or NNE relation from one multi-source sweep, source lo+j riding
// bit j.
func fillSweepBlock(g *sgraph.Graph, kind Kind, out blockView, lo, hi sgraph.NodeID, s *rowScratch) error {
	if s.sweep == nil {
		s.sweep = signedbfs.NewMultiSweep(g.NumNodes())
	}
	s.srcs = s.srcs[:0]
	for u := lo; u < hi; u++ {
		row := out.row(int(u - lo))
		if kind == DPE || kind == NNE {
			edgeWords(g, kind, u, row)
		} else { // SPA, SPO, SPM: bits come from the sweep
			zeroWords(row)
		}
		setWordBit(row, u) // reflexivity
		s.srcs = append(s.srcs, u)
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
	n, stride := out.n, out.stride
	var ok bool
	if kind == SPM {
		ok = sw.StartCounting(g, s.srcs)
	} else {
		ok = sw.Start(g, s.srcs)
	}
	for ; ok; ok = sw.Next() {
		d, level := sw.Level()
		if out.d32 == nil && d > maxDist8 {
			return errDistOverflow
		}
		for _, e := range level {
			v, p, q := int(e.Node), e.Pos, e.Neg
			if out.d32 != nil {
				for b := p | q; b != 0; b &= b - 1 {
					out.d32[bits.TrailingZeros64(b)*n+v] = d
				}
			} else {
				for b := p | q; b != 0; b &= b - 1 {
					out.d8[bits.TrailingZeros64(b)*n+v] = uint8(d)
				}
			}
			w, m := v>>6, uint64(1)<<uint(v&63)
			set := (p &^ (q & qm)) & pm
			if kind == SPM && p&q != 0 {
				set |= sw.Majority(e.Node, p&q)
			}
			for ; set != 0; set &= set - 1 {
				out.bits[bits.TrailingZeros64(set)*stride+w] |= m
			}
		}
	}
	if kind == SPM && sw.Overflowed() {
		recountBlock(g, out, lo, hi, s)
	}
	// The block's footprint: every node any of its sources saw.
	if s.reach != nil {
		for _, v := range sw.Reached() {
			s.reach[v>>6] |= 1 << uint(v&63)
		}
	}
	return nil
}

// recountBlock re-decides the both-signs entries of an SPM block whose
// counting sweep overflowed its 32-bit lane halves: one CountPathsInto
// per source (the lazy engine's own row path, saturating at 2^64)
// settles every node reached along shortest paths of both signs. The
// sweep's other bits, and every distance, are exact regardless.
func recountBlock(g *sgraph.Graph, out blockView, lo, hi sgraph.NodeID, s *rowScratch) {
	for u := lo; u < hi; u++ {
		row := out.row(int(u - lo))
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
