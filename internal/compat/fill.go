package compat

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"

	"repro/internal/balance"
	"repro/internal/container"
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

// setDist writes distance d to v into source u's row, noDist32 as the
// packing's sentinel. It returns errDistOverflow when d does not fit
// the uint8 packing, so the caller can retry the build wide.
func (b slabView) setDist(u, v sgraph.NodeID, d int32) error {
	i := (int(u)-b.base)*b.n + int(v)
	switch {
	case b.d32 != nil:
		b.d32[i] = d
	case d == noDist32:
		b.d8[i] = noDist8
	case d > maxDist8:
		return errDistOverflow
	default:
		b.d8[i] = uint8(d)
	}
	return nil
}

// setDists writes dist as source u's distances, n entries with
// noDist32 (balance.NoPath) where one is undefined.
func (b slabView) setDists(u sgraph.NodeID, dist []int32) error {
	for v, d := range dist {
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
// Every block overwrites its rows completely, bits and distances, the
// sentinel of undefined distances included, so slab needs no prefill;
// it sets the diagonal and keeps tail bits (≥ n) zero so row popcounts
// are exact.
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
		return container.ParallelFor(rows, workers, func(_, i int) error {
			return m.fillBalanceRow(g, out, sgraph.NodeID(base+i))
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
	return container.ParallelFor(blocks, workers, func(w, b int) error {
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

// balanceRow runs u's search for an SBPH (beam) or SBP (exact)
// relation and sets in words, zeroed by the caller, the bit of every
// node a balanced positive path from u reaches. It returns the
// search's distances, balance.NoPath where a node has none. The packed
// fill and the lazy rows both take their SBPH and SBP rows from it.
func balanceRow(g *sgraph.Graph, kind Kind, beam int, exact balance.ExactOptions, u sgraph.NodeID, words []uint64) ([]int32, error) {
	var pd *balance.PathDists
	if kind == SBPH {
		pd = balance.SBPH(g, u, beam)
	} else {
		var err error
		if pd, err = balance.ExactSBP(g, u, exact); err != nil {
			return nil, err
		}
	}
	for v, d := range pd.PosDist {
		if d != balance.NoPath {
			setWordBit(words, sgraph.NodeID(v))
		}
	}
	return pd.PosDist, nil
}

// fillBalanceRow fills row u of an SBPH or SBP relation from one
// balance search.
func (m *ShardedMatrix) fillBalanceRow(g *sgraph.Graph, out slabView, u sgraph.NodeID) error {
	row := out.row(u)
	clear(row)
	dist, err := balanceRow(g, m.kind, m.beam, m.exact, u, row)
	if err != nil {
		return err
	}
	setWordBit(row, u)
	if err := out.setDists(u, dist); err != nil {
		return err
	}
	return out.setDist(u, u, 0)
}

// fillSweepBlock fills the rows of an SPA, SPO, SPM, DPE or NNE
// relation for srcs — at most signedbfs.MaxSources sources, named by
// their ids in sg, the locality-relabelled copy of g — from one
// multi-source sweep of sg, source srcs[j] riding bit j. Rows and
// columns map back to g's ids through m.order; DPE/NNE
// neighbour bits and SPM's overflow recount read g itself.
//
// The sweep writes no bits into the rows, nor, under the uint8
// packing, any distance. Each level entry of node v goes into the
// worker's column buffers instead: the sources whose row gains v are
// OR-ed into colBits[v], and under the uint8 packing the level's
// distance is stored into the byte of each lane that reaches v, in
// v's run of colDist. Once the sweep ends, 64×64 bit and 8×8 byte
// transposes write the block's rows whole and in order (the sentinel
// of every column a source does not reach included), resetting the
// buffers as they read them; a block of fewer than gatherLanes
// sources gathers its rows lane by lane. Level 0 gives each source
// its own bit and distance 0. The wide packing writes the sentinel
// over each source's distances first and its defined int32 distances
// lane by lane during the sweep.
func (m *ShardedMatrix) fillSweepBlock(g, sg *sgraph.Graph, out slabView, srcs []sgraph.NodeID, s *rowScratch) error {
	kind, order, wide := m.kind, m.order, out.d32 != nil
	if s.sweep == nil {
		s.sweep = signedbfs.NewMultiSweep(g.NumNodes())
	}
	s.growCols(out.stride)
	// bitAt[j] and distAt[j] are where source j's row starts in out's
	// bit words and distance lanes.
	var bitAt, distAt [signedbfs.MaxSources]int
	for j, r := range srcs {
		u := order[r]
		if kind == DPE || kind == NNE {
			row := out.row(u)
			edgeWords(g, kind, u, row)
			setWordBit(row, u) // reflexivity
		}
		i := int(u) - out.base
		bitAt[j], distAt[j] = i*out.stride, i*out.n
		if wide {
			for v := range out.n {
				out.d32[distAt[j]+v] = noDist32
			}
		}
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
	sw, cb, cd := s.sweep, s.colBits, s.colDist
	groups := (len(srcs) + 7) / 8
	var ok bool
	if kind == SPM {
		ok = sw.StartCounting(sg, srcs)
	} else {
		ok = sw.Start(sg, srcs)
	}
	for ; ok; ok = sw.Next() {
		d, level := sw.Level()
		if !wide && d > maxDist8 {
			s.resetCols()
			return errDistOverflow
		}
		for _, e := range level {
			v, p, q := int(order[e.Node]), e.Pos, e.Neg
			if wide {
				for b := p | q; b != 0; b &= b - 1 {
					out.d32[distAt[bits.TrailingZeros64(b)]+v] = d
				}
			} else {
				col := cd[v*8*groups:][:8*groups]
				for b := p | q; b != 0; b &= b - 1 {
					col[bits.TrailingZeros64(b)] = uint8(d)
				}
			}
			set := (p &^ (q & qm)) & pm
			if kind == SPM && p&q != 0 {
				set |= sw.Majority(e.Node, p&q)
			}
			cb[v] |= set
		}
	}
	if kind != DPE && kind != NNE {
		writeBitRows(out.bits, out.stride, bitAt[:len(srcs)], cb)
	}
	if !wide {
		writeDistRows(out.d8, out.n, distAt[:len(srcs)], cd)
	}
	if kind == SPM && sw.Overflowed() {
		m.recountBlock(g, out, srcs, s)
	}
	return nil
}

// growCols sizes the column buffers for rows of stride bit words: one
// bit word per column, 64 columns a row word, so the last transpose
// tile is whole, and 64 distance bytes per column (the lanes of a full
// block). Fresh buffers are in the reset state: colBits all zeros,
// colDist all noDist8.
func (s *rowScratch) growCols(stride int) {
	if len(s.colBits) == 64*stride {
		return
	}
	s.colBits = make([]uint64, 64*stride)
	s.colDist = make([]uint8, 64*64*stride)
	s.resetCols()
}

// resetCols returns the column buffers to the reset state, after a
// sweep aborted before its transposes could.
func (s *rowScratch) resetCols() {
	clear(s.colBits)
	for i := range s.colDist {
		s.colDist[i] = noDist8
	}
}

// gatherLanes is the block width below which the row writers gather
// each source's row lane by lane: a transpose moves all 64 (or 8)
// lanes, which a block of a few sources — a shard's short tail, or a
// one-row shard — does not repay.
const gatherLanes = 8

// writeBitRows writes the bit rows of a block's sources from cols, one
// word per column holding bit j for source j: row j, at words[at[j]:],
// gets its stride words from one 64×64 transpose per 64 columns, or
// below gatherLanes sources from one gather per word. It zeroes every
// column word it reads.
func writeBitRows(words []uint64, stride int, at []int, cols []uint64) {
	for w := 0; w < stride; w++ {
		tile := cols[64*w : 64*w+64]
		if len(at) < gatherLanes {
			for j, o := range at {
				var x uint64
				for i, c := range tile {
					x |= c >> uint(j) & 1 << uint(i)
				}
				words[o+w] = x
			}
			clear(tile)
			continue
		}
		t := [64]uint64(tile)
		clear(tile)
		transpose64(&t)
		for j, o := range at {
			words[o+w] = t[j]
		}
	}
}

// writeDistRows writes the n uint8 distances of each of a block's
// sources from cols: column v's distances are the 8·groups bytes at
// cols[8·v·groups:], groups = (len(at)+7)/8, lane j in byte j, and row
// j starts at d8[at[j]:]. One 8×8 byte transpose per eight columns and
// group of eight lanes writes eight bytes of eight rows; a last,
// partial group writes only its sources' rows and the last eight
// columns only those below n. Below gatherLanes sources, one group,
// each row is gathered byte by byte instead. It sets every column byte
// it reads, the last eight columns' whole, back to noDist8.
func writeDistRows(d8 []uint8, n int, at []int, cols []uint8) {
	if len(at) < gatherLanes {
		for j, o := range at {
			row := d8[o : o+n]
			for v := range row {
				row[v] = cols[8*v+j]
			}
		}
		for v := 0; v < (n+7)&^7; v++ {
			binary.LittleEndian.PutUint64(cols[8*v:], ^uint64(0))
		}
		return
	}
	groups := (len(at) + 7) / 8
	for c := 0; c < n; c += 8 {
		tile := cols[8*c*groups : 8*(c+8)*groups]
		for k := 0; k < groups; k++ {
			var t [8]uint64
			for i := range t {
				o := 8 * (i*groups + k)
				t[i] = binary.LittleEndian.Uint64(tile[o:])
				binary.LittleEndian.PutUint64(tile[o:], ^uint64(0))
			}
			transpose8(&t)
			lanes := at[8*k : min(8*k+8, len(at))]
			if c+8 <= n {
				for i, o := range lanes {
					binary.LittleEndian.PutUint64(d8[o+c:], t[i])
				}
				continue
			}
			for i, o := range lanes {
				for x := c; x < n; x++ {
					d8[o+x] = uint8(t[i] >> (8 * (x - c)))
				}
			}
		}
	}
}

// transpose64 transposes the 64×64 bit matrix whose row r is t[r],
// bit c of t[r] its column c: block swaps of 32, 16, ..., 1 bits
// (Hacker's Delight §7-3).
func transpose64(t *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for s := 32; s != 0; s >>= 1 {
		for r := 0; r < 64; r = (r + s + 1) &^ s {
			t[r], t[r+s] = swapBlocks(t[r], t[r+s], uint(s), m)
		}
		m ^= m << (s >> 1)
	}
}

// transpose8 transposes the 8×8 byte matrix whose row r is t[r], byte
// c (bits 8c..8c+7) of t[r] its column c: block swaps of 4, 2 and 1
// bytes, unrolled on locals so the rows stay in registers.
func transpose8(t *[8]uint64) {
	const m4, m2, m1 = 0x00000000FFFFFFFF, 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF
	a0, a4 := swapBlocks(t[0], t[4], 32, m4)
	a1, a5 := swapBlocks(t[1], t[5], 32, m4)
	a2, a6 := swapBlocks(t[2], t[6], 32, m4)
	a3, a7 := swapBlocks(t[3], t[7], 32, m4)
	a0, a2 = swapBlocks(a0, a2, 16, m2)
	a1, a3 = swapBlocks(a1, a3, 16, m2)
	a4, a6 = swapBlocks(a4, a6, 16, m2)
	a5, a7 = swapBlocks(a5, a7, 16, m2)
	t[0], t[1] = swapBlocks(a0, a1, 8, m1)
	t[2], t[3] = swapBlocks(a2, a3, 8, m1)
	t[4], t[5] = swapBlocks(a4, a5, 8, m1)
	t[6], t[7] = swapBlocks(a6, a7, 8, m1)
}

// swapBlocks exchanges the blocks of a selected by m<<s with the
// blocks of b selected by m: one step of a recursive transpose.
func swapBlocks(a, b uint64, s uint, m uint64) (uint64, uint64) {
	x := (a>>s ^ b) & m
	return a ^ x<<s, b ^ x
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

// edgeWords writes u's DPE or NNE compatibility bits into words
// (reflexivity aside): DPE sets u's positive neighbours, NNE sets
// everyone except u's negative neighbours, unreachable nodes included.
func edgeWords(g *sgraph.Graph, kind Kind, u sgraph.NodeID, words []uint64) {
	signs := g.NeighborSigns(u)
	if kind == DPE {
		clear(words)
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
