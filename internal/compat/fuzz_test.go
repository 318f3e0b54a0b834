// Native fuzz targets for the mutation machinery. CI runs each for a
// short -fuzztime as a smoke (and the targets double as regular tests
// over their seed corpus in every ordinary `go test` run).
//
// FuzzMutationSequence decodes the fuzz input as a mutation program
// and drives a sharded engine through it, checking epoch bookkeeping
// and final agreement with a fresh build — the fuzzer hunts for
// mutation interleavings the seeded oracle tests did not draw.
// FuzzSpillRoundTrip fuzzes the epoch-tagged spill slot format:
// whatever is written must read back exactly, epoch mismatches must be
// refused, and view/relocate must never tear exposed slots.
// FuzzOpenSharded fuzzes the saved engine file: any byte string opens
// as an error or as an engine whose every query answers, never a
// panic.

package compat

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sgraph"
)

// decodeMutation maps three fuzz bytes onto a mutation over n nodes.
// The byte space deliberately covers invalid inputs (self-loops,
// out-of-range IDs handled by clamping at n) so rejection paths fuzz
// too.
func decodeMutation(n int, op, a, b byte) sgraph.Mutation {
	mut := sgraph.Mutation{
		Op: sgraph.MutOp(1 + op%3),
		U:  sgraph.NodeID(int(a) % n),
		V:  sgraph.NodeID(int(b) % n),
	}
	if mut.Op == sgraph.MutAdd {
		mut.Sign = sgraph.Positive
		if op&4 != 0 {
			mut.Sign = sgraph.Negative
		}
	}
	return mut
}

func FuzzMutationSequence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 2, 2, 1, 2})          // add, remove, flip-missing
	f.Add([]byte{4, 0, 3, 2, 0, 3, 0, 3, 3})          // neg add, flip, self-loop
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 1}) // duplicate add, remove, flip gone
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 10
		if len(data) > 60 {
			data = data[:60] // bound the program, keep iterations fast
		}
		rng := rand.New(rand.NewSource(911))
		g := randomSignedGraph(rng, n, 16, 0.3)
		eng := mustSharded(t, SPO, g, ShardedOptions{ShardRows: 3})
		defer eng.Close()
		es := newEdgeSet(g)
		var applied uint64
		for i := 0; i+3 <= len(data); i += 3 {
			mut := decodeMutation(n, data[i], data[i+1], data[i+2])
			res, err := eng.Mutate(mut)
			if err != nil {
				// Rejected mutations must not move the epoch.
				if got := eng.Epoch(); got != applied {
					t.Fatalf("rejected %+v moved epoch to %d (want %d)", mut, got, applied)
				}
				continue
			}
			applied++
			if res.Epoch != applied {
				t.Fatalf("mutation %d: epoch %d, want %d", i/3, res.Epoch, applied)
			}
			es.apply(mut)
		}
		oracle := mustNew(SPO, es.graph(), Options{})
		checkAgainstOracle(t, int(applied), "fuzz-sharded", eng, oracleTable(t, oracle))
	})
}

func FuzzSpillRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint64(0), uint64(1), false)
	f.Add(uint8(1), uint8(1), uint64(7), uint64(7), true)
	f.Add(uint8(8), uint8(40), uint64(1), uint64(2), true)
	f.Fuzz(func(t *testing.T, wordsB, distB uint8, epochA, epochB uint64, wide bool) {
		words := 1 + int(wordsB%16)
		dist := 1 + int(distB%64)
		slotBytes := int64(words * 8)
		if wide {
			slotBytes += int64(dist * 4)
		} else {
			slotBytes += int64(dist)
		}
		for _, noMmap := range spillBackends(t) {
			sp, err := newShardSpill(t.TempDir(), []int64{slotBytes, slotBytes}, !noMmap)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(epochA) ^ int64(words*dist)))
			bits, d8, d32 := randomSlot(rng, words, dist, wide)
			if err := sp.write(0, epochA, bits, d8, d32); err != nil {
				t.Fatal(err)
			}
			gotBits, gotD8, gotD32 := randomSlot(rng, words, dist, wide)
			if _, err := sp.read(0, epochA, gotBits, gotD8, gotD32, nil); err != nil {
				t.Fatalf("read back at the written epoch: %v", err)
			}
			for i := range bits {
				if gotBits[i] != bits[i] {
					t.Fatalf("bits[%d] = %#x, want %#x", i, gotBits[i], bits[i])
				}
			}
			for i := range d8 {
				if gotD8[i] != d8[i] {
					t.Fatalf("dist8[%d] roundtrip mismatch", i)
				}
			}
			for i := range d32 {
				if gotD32[i] != d32[i] {
					t.Fatalf("dist32[%d] roundtrip mismatch", i)
				}
			}
			if epochB != epochA {
				if _, err := sp.read(0, epochB, gotBits, gotD8, gotD32, nil); err == nil {
					t.Fatal("read with a mismatched epoch must error")
				}
				if _, _, _, ok := sp.view(0, epochB, words, lenOf(d8), lenOf(d32)); ok {
					t.Fatal("view with a mismatched epoch must refuse")
				}
			}
			if sp.canView() {
				vBits, vD8, vD32, ok := sp.view(0, epochA, words, lenOf(d8), lenOf(d32))
				if !ok {
					t.Fatal("view of a mapped, epoch-matching slot must succeed")
				}
				// Overwriting a viewed slot relocates it; the view's bytes
				// must survive and the new epoch must read back.
				nb, nd8, nd32 := randomSlot(rng, words, dist, wide)
				nb[0] = ^bits[0]
				if err := sp.write(0, epochB, nb, nd8, nd32); err != nil {
					t.Fatal(err)
				}
				for i := range vBits {
					if vBits[i] != bits[i] {
						t.Fatal("exposed view torn by a relocating write")
					}
				}
				for i := range vD8 {
					if vD8[i] != d8[i] {
						t.Fatal("exposed view dist8 torn by a relocating write")
					}
				}
				for i := range vD32 {
					if vD32[i] != d32[i] {
						t.Fatal("exposed view dist32 torn by a relocating write")
					}
				}
				if _, err := sp.read(0, epochB, gotBits, gotD8, gotD32, nil); err != nil {
					t.Fatalf("reading the relocated slot: %v", err)
				}
				if gotBits[0] != nb[0] {
					t.Fatal("relocated slot did not serve the new payload")
				}
			}
			sp.close()
		}
	})
}

func lenOf[T any](s []T) int { return len(s) }

func FuzzOpenSharded(f *testing.F) {
	g := randomSignedGraph(rand.New(rand.NewSource(1701)), 9, 14, 0.3)
	dir := f.TempDir()
	for i, opts := range []ShardedOptions{{ShardRows: 4}, {ShardRows: 9}} {
		path := filepath.Join(dir, "seed")
		m := mustSharded(f, Kind(i)+SPO, g, opts)
		if err := m.Save(path); err != nil {
			f.Fatal(err)
		}
		m.Close()
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "engine")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, useMmap := range []bool{true, false} {
			m, err := openSharded(path, g, useMmap)
			if err != nil {
				continue
			}
			n := sgraph.NodeID(g.NumNodes())
			for u := sgraph.NodeID(0); u < n; u++ {
				if m.RowWords(u)[0]>>uint(n) != 0 {
					t.Fatalf("opened row %d has bits past n", u)
				}
				for v := sgraph.NodeID(0); v < n; v++ {
					if _, err := m.Compatible(u, v); err != nil {
						t.Fatal(err)
					}
					if _, _, err := m.Distance(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			m.Close()
		}
	})
}
