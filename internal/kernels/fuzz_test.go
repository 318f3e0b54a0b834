// FuzzKernels drives every kernel against its naive reference from
// one fuzzed byte string: the input is carved into a bit length, a
// row count, packed holder/mask words and row bytes, so the fuzzer
// explores lengths (including every tail in 0–63), candidate
// densities and sentinel placements the property suite only samples.
// The argmin kernels run under every fixed budget of argminCeils plus
// two drawn from the leftover bytes, each over both word lists of
// wordLists.
// CI runs it in the fuzz-smoke job.

package kernels

import (
	"testing"
)

func FuzzKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0xFF, 0xFF, 0x03, 7})
	f.Add([]byte{130 % 64, 2, 0xAA, 0x55, 0x0F, 0xF0, 1, 2, 3, 4, 0xFF, 0xFE, 0, 0, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// Bit length in [0, 256), row count in [1, 4].
		n := int(data[0]) | (int(data[1])&1)<<8
		nRows := 1 + int(data[1]>>1)%4
		data = data[2:]
		words := (n + 63) / 64

		next := func(k int) []byte {
			out := make([]byte, k)
			copy(out, data)
			if len(data) >= k {
				data = data[k:]
			} else {
				data = nil
			}
			return out
		}
		packWords := func(raw []byte) []uint64 {
			ws := make([]uint64, words)
			for i := 0; i < n; i++ {
				if raw[i/8]&(1<<uint(i%8)) != 0 {
					ws[i>>6] |= 1 << uint(i&63)
				}
			}
			return ws
		}
		holder := packWords(next((n + 7) / 8))
		mask := packWords(next((n + 7) / 8))
		rows := make([][]uint8, nRows)
		for r := range rows {
			rows[r] = next(n)
		}

		if got, want := Count(holder), refCount(holder); got != want {
			t.Fatalf("Count=%d want %d", got, want)
		}
		if got, want := AndCount(holder, mask), refAndCount(holder, mask); got != want {
			t.Fatalf("AndCount=%d want %d", got, want)
		}
		anded := append([]uint64(nil), holder...)
		c := AndInto(anded, mask)
		if c != refAndCount(holder, mask) {
			t.Fatalf("AndInto count=%d want %d", c, refAndCount(holder, mask))
		}
		for i := range anded {
			if anded[i] != holder[i]&mask[i] {
				t.Fatalf("AndInto word %d = %x want %x", i, anded[i], holder[i]&mask[i])
			}
		}

		if nRows > 0 && n > 0 {
			ceils := argminCeils(true, nRows)
			if len(data) > 0 {
				// Fuzzed budgets on top of the fixed ones (the max
				// kernel sees ceilings above Undefined as no limit).
				ceils = append(ceils, uint32(data[0]), uint32(data[len(data)-1])*uint32(nRows))
			}
			lists := wordLists(holder)
			for _, sum := range []bool{false, true} {
				for _, ceil := range ceils {
					wi, ws, wok := refArgmin(rows, holder, mask, sum, ceil)
					for list, nz := range lists {
						gi, gs, gok := runArgmin(rows, holder, mask, nz, sum, ceil)
						if gok != wok || gi != wi || (wok && gs != ws) {
							t.Fatalf("argmin sum=%v ceil=%d %s got (%d,%d,%v) want (%d,%d,%v)", sum, ceil, list, gi, gs, gok, wi, ws, wok)
						}
					}
				}
			}
		}
	})
}
