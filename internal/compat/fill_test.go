package compat

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sgraph"
	"repro/internal/signedbfs"
)

// TestLocalityOrder: on every blockGraphs input — split's separate
// components and isolated nodes included — the sweeps' locality order
// is a deterministic permutation of the node ids that starts at a
// highest-degree node.
func TestLocalityOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, bg := range blockGraphs(rng) {
		g, n := bg.g, bg.g.NumNodes()
		order := localityOrder(g)
		if !slices.Equal(order, localityOrder(g)) {
			t.Fatalf("%s: two orders of one graph differ", bg.name)
		}
		seen := make([]bool, n)
		for _, u := range order {
			if u < 0 || int(u) >= n || seen[u] {
				t.Fatalf("%s: order %v is not a permutation of 0..%d", bg.name, order, n-1)
			}
			seen[u] = true
		}
		if len(order) != n {
			t.Fatalf("%s: order has %d nodes, want %d", bg.name, len(order), n)
		}
		for u := sgraph.NodeID(0); int(u) < n; u++ {
			if g.Degree(u) > g.Degree(order[0]) {
				t.Fatalf("%s: order starts at node %d of degree %d, node %d has %d",
					bg.name, order[0], g.Degree(order[0]), u, g.Degree(u))
			}
		}
	}
}

// TestTranspose64: writeBitRows, the 64×64 bit transposes behind the
// packed sweeps' bit rows, writes exactly what a naive loop over
// (lane, column) reads from the column words, for every lane count
// from 1 to 64 and every node tail (n mod 8) from 0 to 7, into rows
// laid out out of lane order; it leaves the words around each row
// alone and the column buffer all zeros.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for tail := 0; tail < 8; tail++ {
		n := 128 + 8 + tail
		stride := (n + 63) / 64
		for k := 1; k <= signedbfs.MaxSources; k++ {
			cols := make([]uint64, 64*stride)
			for v := 0; v < n; v++ {
				cols[v] = rng.Uint64() & (1<<uint(k) - 1)
			}
			want := slices.Clone(cols)
			// Row j sits at slot perm[j] of a slab whose rows have one
			// guard word after them.
			perm := rng.Perm(k)
			at := make([]int, k)
			for j := range at {
				at[j] = perm[j] * (stride + 1)
			}
			const guard = 0x5A5A5A5A5A5A5A5A
			out := make([]uint64, k*(stride+1))
			for i := range out {
				out[i] = guard
			}
			writeBitRows(out, stride, at, cols)
			for j, o := range at {
				for v := 0; v < 64*stride; v++ {
					got := out[o+v>>6]>>uint(v&63)&1 != 0
					if exp := v < n && want[v]>>uint(j)&1 != 0; got != exp {
						t.Fatalf("n=%d k=%d: row %d column %d = %v, want %v", n, k, j, v, got, exp)
					}
				}
				if out[o+stride] != guard {
					t.Fatalf("n=%d k=%d: row %d's guard word overwritten", n, k, j)
				}
			}
			if slices.ContainsFunc(cols, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("n=%d k=%d: column bits not reset", n, k)
			}
		}
	}
}

// TestTranspose8: writeDistRows, the 8×8 byte transposes behind the
// packed sweeps' uint8 distance rows, writes exactly what a naive loop
// over (lane, column) reads from the column bytes, for every lane
// count from 1 to 64 and every node tail from 0 to 7, into rows laid
// out out of lane order; it writes nothing past a row's n bytes and
// leaves the column buffer all noDist8.
func TestTranspose8(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for tail := 0; tail < 8; tail++ {
		n := 128 + 8 + tail
		cols := make([]uint8, (n+7)/8*8*64)
		for k := 1; k <= signedbfs.MaxSources; k++ {
			groups := (k + 7) / 8
			rng.Read(cols)
			want := slices.Clone(cols)
			// Row j sits at slot perm[j] of a slab whose rows have
			// eight guard bytes after them.
			perm := rng.Perm(k)
			at := make([]int, k)
			for j := range at {
				at[j] = perm[j] * (n + 8)
			}
			const guard = 0x5A
			out := make([]uint8, k*(n+8))
			for i := range out {
				out[i] = guard
			}
			writeDistRows(out, n, at, cols)
			for j, o := range at {
				for v := 0; v < n; v++ {
					if got, exp := out[o+v], want[8*v*groups+j]; got != exp {
						t.Fatalf("n=%d k=%d: row %d column %d = %#x, want %#x", n, k, j, v, got, exp)
					}
				}
				for x := n; x < n+8; x++ {
					if out[o+x] != guard {
						t.Fatalf("n=%d k=%d: row %d written past n at %d", n, k, j, x)
					}
				}
			}
			if slices.ContainsFunc(cols[:(n+7)/8*64*groups], func(b uint8) bool { return b != noDist8 }) {
				t.Fatalf("n=%d k=%d: column distances not reset", n, k)
			}
		}
	}
}

// TestSweepFillWritesEveryCell: every fill writes every bit and
// distance of its rows, so a slab poisoned with random words and
// distances fills exactly as one prefilled with the sentinel. It runs
// the SPA, SPO, SPM, DPE and NNE sweep fills under both packings on
// every blockGraphs input, at shard heights 1, 7, 64, n and those
// -shard-rows names, with two workers (so blocks of 1 to 64 lanes,
// partial byte groups included) sharing their scratch across every
// fill, and the SBPH balance fill under both packings at height n.
// Where a distance outgrows uint8 both fills must abort, and the
// fills after the abort must still agree.
func TestSweepFillWritesEveryCell(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, bg := range blockGraphs(rng) {
		g, n := bg.g, bg.g.NumNodes()
		scratches, workers := newWorkerScratches(2, n)
		heights := append([]int{1, 7, 64, n}, parseShardRows(t)...)
		slices.Sort(heights)
		for _, rows := range slices.Compact(heights) {
			for _, k := range []Kind{SPA, SPO, SPM, DPE, NNE, SBPH} {
				if k == SBPH && rows != n {
					continue // it fills row by row: one height covers it
				}
				for _, wide := range []bool{false, true} {
					m := newShardedMatrix(k, g, ShardedOptions{ShardRows: rows})
					m.wide = wide
					var sg *sgraph.Graph
					if m.order != nil {
						sg = g.Relabel(m.order)
					}
					for s := 0; s < m.numShards; s++ {
						base, h := s*m.shardRows, m.shardLen(s)
						poisoned := m.newSlab(h)
						for i := range poisoned.bits {
							poisoned.bits[i] = rng.Uint64()
						}
						rng.Read(poisoned.dist8)
						for i := range poisoned.dist32 {
							poisoned.dist32[i] = int32(rng.Uint32())
						}
						blank := m.newSlab(h)
						for i := range blank.dist8 {
							blank.dist8[i] = noDist8
						}
						for i := range blank.dist32 {
							blank.dist32[i] = noDist32
						}
						errP := m.fillRows(g, sg, poisoned, base, h, workers, scratches)
						errB := m.fillRows(g, sg, blank, base, h, workers, scratches)
						if errP != nil || errB != nil {
							if !errors.Is(errP, errDistOverflow) || !errors.Is(errB, errDistOverflow) {
								t.Fatalf("%s %v wide=%v rows=%d shard %d: fills returned %v and %v", bg.name, k, wide, rows, s, errP, errB)
							}
							continue
						}
						if !slices.Equal(poisoned.bits, blank.bits) || !bytes.Equal(poisoned.dist8, blank.dist8) ||
							!slices.Equal(poisoned.dist32, blank.dist32) {
							t.Fatalf("%s %v wide=%v rows=%d shard %d: the poisoned slab fills differently", bg.name, k, wide, rows, s)
						}
					}
				}
			}
		}
	}
}
