package container

import (
	"math/bits"

	"repro/internal/kernels"
)

// Bitset is a fixed-size set of small non-negative integers. It is used
// to mark visited nodes in graph traversals where a []bool would double
// the cache footprint.
type Bitset struct {
	words []uint64
}

// NewBitset returns a bitset able to hold values in [0, n).
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("container: NewBitset with negative size")
	}
	return &Bitset{words: make([]uint64, (n+63)/64)}
}

// Set marks i as a member.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Contains reports whether i is a member.
func (b *Bitset) Contains(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// Grow reshapes the set to hold values in [0, n) and clears it,
// reusing the backing array whenever it already has the capacity — the
// reuse primitive for scratch bitsets that serve tasks of varying
// size.
func (b *Bitset) Grow(n int) {
	if n < 0 {
		panic("container: Bitset.Grow with negative size")
	}
	words := (n + 63) / 64
	if cap(b.words) < words {
		b.words = make([]uint64, words)
	} else {
		b.words = b.words[:words]
		for i := range b.words {
			b.words[i] = 0
		}
	}
}

// Words exposes the backing word slice (bit i of word i/64 is member
// 64*(i/64)+i%64). Callers may read it for word-parallel operations but
// must not resize it; bits at positions ≥ the set's size are always
// zero.
func (b *Bitset) Words() []uint64 { return b.words }

// CopyFrom overwrites the set with the given words, which must have
// the set's word length (as produced by another Bitset or a packed
// matrix row of the same universe size).
func (b *Bitset) CopyFrom(words []uint64) {
	if len(words) != len(b.words) {
		panic("container: Bitset.CopyFrom word-length mismatch")
	}
	copy(b.words, words)
}

// And intersects the set in place with the given words (same length
// contract as CopyFrom).
func (b *Bitset) And(words []uint64) {
	if len(words) != len(b.words) {
		panic("container: Bitset.And word-length mismatch")
	}
	kernels.And(b.words, words)
}

// AndCount returns the size of the intersection of two word slices —
// popcount(a AND b) — without materialising it. Slices must have equal
// length. And and AndCount share the one kernel entry point per
// operation (internal/kernels), so tail handling and unrolling live in
// exactly one place.
func AndCount(a, b []uint64) int {
	if len(a) != len(b) {
		panic("container: AndCount word-length mismatch")
	}
	return kernels.AndCount(a, b)
}

// ForEach calls fn for every member in increasing order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*64 + tz)
			w &= w - 1
		}
	}
}
