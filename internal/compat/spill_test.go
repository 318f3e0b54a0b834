package compat

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// spillBackends enumerates the noMmap values under test: both the
// memory-mapped read path and the portable ReadAt fallback where the
// platform has mmap, only the fallback elsewhere. The two must behave
// byte-identically.
func spillBackends(t *testing.T) []bool {
	t.Helper()
	if spillMmapSupported {
		return []bool{false, true}
	}
	return []bool{true}
}

// randomSlot fills one slot's buffers with random content.
func randomSlot(rng *rand.Rand, words, dist int, wide bool) ([]uint64, []uint8, []int32) {
	bits := make([]uint64, words)
	for i := range bits {
		bits[i] = rng.Uint64()
	}
	if wide {
		d32 := make([]int32, dist)
		for i := range d32 {
			d32[i] = int32(rng.Uint32())
		}
		return bits, nil, d32
	}
	d8 := make([]uint8, dist)
	rng.Read(d8)
	return bits, d8, nil
}

// TestShardSpillBackendsRoundTrip: slots written once must read back
// bit-identically through both the mmap and the ReadAt backend, in
// both distance packings, with a caller-owned scratch buffer.
func TestShardSpillBackendsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	const words, dist = 9, 41
	for _, wide := range []bool{false, true} {
		slotBytes := int64(words * 8)
		if wide {
			slotBytes += dist * 4
		} else {
			slotBytes += dist
		}
		sizes := []int64{slotBytes, slotBytes, slotBytes}
		for _, noMmap := range spillBackends(t) {
			sp, err := newShardSpill(t.TempDir(), sizes, !noMmap)
			if err != nil {
				t.Fatal(err)
			}
			if !noMmap && spillMmapSupported && !(sp.data != nil) {
				t.Fatal("mmap requested and supported but the spill fell back to ReadAt")
			}
			if noMmap && (sp.data != nil) {
				t.Fatal("mmap disabled but the spill mapped the file anyway")
			}
			type slot struct {
				bits []uint64
				d8   []uint8
				d32  []int32
			}
			var want []slot
			for i := range sizes {
				bits, d8, d32 := randomSlot(rng, words, dist, wide)
				want = append(want, slot{bits, d8, d32})
				if err := sp.write(i, uint64(i), bits, d8, d32); err != nil {
					t.Fatal(err)
				}
			}
			var scratch []byte
			for i := range sizes {
				bits, d8, d32 := randomSlot(rng, words, dist, wide) // garbage to overwrite
				scratch, err = sp.read(i, uint64(i), bits, d8, d32, scratch)
				if err != nil {
					t.Fatal(err)
				}
				for j := range bits {
					if bits[j] != want[i].bits[j] {
						t.Fatalf("noMmap=%v wide=%v: slot %d bit word %d = %#x, want %#x",
							noMmap, wide, i, j, bits[j], want[i].bits[j])
					}
				}
				for j := range d8 {
					if d8[j] != want[i].d8[j] {
						t.Fatalf("noMmap=%v: slot %d dist8[%d] mismatch", noMmap, i, j)
					}
				}
				for j := range d32 {
					if d32[j] != want[i].d32[j] {
						t.Fatalf("noMmap=%v: slot %d dist32[%d] mismatch", noMmap, i, j)
					}
				}
			}
			if err := sp.close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardSpillCloseIdempotent: close must be callable any number of
// times (only the first does work), and reads after close must fail
// with an error rather than serving torn data or panicking.
func TestShardSpillCloseIdempotent(t *testing.T) {
	for _, noMmap := range spillBackends(t) {
		sp, err := newShardSpill(t.TempDir(), []int64{16}, !noMmap)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.write(0, 0, []uint64{1}, []uint8{2, 3, 4, 5, 6, 7, 8, 9}, nil); err != nil {
			t.Fatal(err)
		}
		if err := sp.close(); err != nil {
			t.Fatalf("first close: %v", err)
		}
		for i := 0; i < 3; i++ {
			if err := sp.close(); err != nil {
				t.Fatalf("close #%d after close: %v", i+2, err)
			}
		}
		if _, err := sp.read(0, 0, []uint64{0}, make([]uint8, 8), nil, nil); err == nil {
			t.Fatal("read after close must error")
		}
	}
}

// TestShardSpillConcurrentReaders: read must hold no spill-internal
// mutable state — concurrent readers with caller-owned scratch, racing
// a writer on a different slot, must all see consistent data (run
// under -race in CI).
func TestShardSpillConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	const words, dist, slots = 7, 23, 4
	slotBytes := int64(words*8 + dist)
	sizes := make([]int64, slots)
	for i := range sizes {
		sizes[i] = slotBytes
	}
	for _, noMmap := range spillBackends(t) {
		sp, err := newShardSpill(t.TempDir(), sizes, !noMmap)
		if err != nil {
			t.Fatal(err)
		}
		wantBits := make([][]uint64, slots)
		wantD8 := make([][]uint8, slots)
		for i := 0; i < slots; i++ {
			bits, d8, _ := randomSlot(rng, words, dist, false)
			wantBits[i], wantD8[i] = bits, d8
			if err := sp.write(i, 7, bits, d8, nil); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errc := make(chan error, 4)
		// One writer rewrites slot 0 with its own (stable) content; the
		// readers stay off slot 0, mimicking the cold-slot/resident-slot
		// disjointness the sharded matrix guarantees.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := sp.write(0, 7, wantBits[0], wantD8[0], nil); err != nil {
					errc <- err
					return
				}
			}
		}()
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var scratch []byte
				bits := make([]uint64, words)
				d8 := make([]uint8, dist)
				var err error
				for i := 0; i < 200; i++ {
					s := 1 + (i+r)%(slots-1)
					scratch, err = sp.read(s, 7, bits, d8, nil, scratch)
					if err != nil {
						errc <- err
						return
					}
					for j := range bits {
						if bits[j] != wantBits[s][j] {
							errc <- errors.New("concurrent read returned torn bits")
							return
						}
					}
				}
			}(r)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		sp.close()
	}
}
