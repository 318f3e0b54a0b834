package kernels

import "math/bits"

// Undefined is the uint8 lane sentinel the distance kernels treat as
// "no defined value": it matches the packed distance encoding of the
// compat engines (their noDist8). Lanes holding it are skipped by the
// argmin kernels; it can never win a scan, because every defined value
// is strictly smaller.
const Undefined = 0xFF

const (
	lsb8 = 0x0101010101010101 // 1 in every byte lane
	msb8 = 0x8080808080808080 // high bit of every byte lane
)

// AndCount returns popcount(a AND b) over the first len(a) words
// without materialising the intersection. b must be at least as long
// as a.
func AndCount(a, b []uint64) int { return andCountWords(a, b) }

// And intersects dst with src in place over the first len(dst) words.
// src must be at least as long as dst.
func And(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}

// maxU8x8 returns the lane-wise unsigned max of two 8×uint8 vectors
// packed in uint64s. Branch-free: a byte-wise x≥y mask is built from
// the sign bits of a borrow-safe subtract, widened to full lanes, and
// used to blend.
func maxU8x8(x, y uint64) uint64 {
	// Per lane, (0x80+lowbits(x))-lowbits(y) stays in [0x01,0xFF], so
	// lanes cannot borrow into each other; its high bit is
	// lowbits(x) ≥ lowbits(y), which decides x≥y when the original
	// high bits tie.
	z := (x | msb8) - (y &^ msb8)
	ge := ((x &^ y) | (^(x ^ y) & z)) & msb8
	m := ge | (ge - (ge >> 7)) // widen 0x80 → 0xFF per lane
	return (x & m) | (y &^ m)
}

// spreadFlags expands the low 8 bits of b into byte-lane flags: lane
// j's high bit is set when bit j is set — the flag form hasLess
// produces, so candidate bits AND distance predicates compose with
// plain word ops.
func spreadFlags(b uint64) uint64 {
	x := ((b & 0xFF) * lsb8) & 0x8040201008040201
	return (x + ^uint64(msb8)) & msb8
}

// spreadBits expands the low 8 bits of b into byte lanes: lane j is
// 0xFF when bit j is set, 0x00 otherwise.
func spreadBits(b uint64) uint64 {
	hi := spreadFlags(b)
	return hi | (hi - (hi >> 7))
}

// hasLess returns the high-bit flags of lanes whose byte value is
// strictly below n, exact per lane for n ≤ 128. It is the borrow
// trick made borrow-safe as in maxU8x8: with every lane's high bit
// forced on, (0x80+lowbits(x))-n cannot borrow into the next lane,
// and its high bit is clear exactly when lowbits(x) < n. (The classic
// (x-n)&^x form is only an any-lane test: a lane below n borrows from
// the next one, so at n = 128 a zero lane above it went unflagged.)
func hasLess(x uint64, n uint8) uint64 {
	return ^(((x | msb8) - uint64(n)*lsb8) | x) & msb8
}

// le64 assembles 8 consecutive bytes into lanes: byte b[i] lands in
// lane i (bits 8i..8i+7) regardless of host endianness. The compiler
// recognises the pattern as a single load on little-endian targets.
func le64(b []uint8) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// swarBlockMin is the per-word candidate density below which
// ArgminMaxU8 scores candidates one by one instead of eight lanes at
// a time: with very few candidates in a word the lane-parallel row
// loads cost more than they save.
const swarBlockMin = 4

// ArgminMaxU8 is the fused AND-popcount-argmin kernel. The candidate
// set is the set bits of (holder AND mask) over the words listed in
// nz, never materialised; the score of candidate index i is max over
// r of rows[r][i], and a candidate with any lane equal to Undefined is
// skipped. ceil is an exclusive budget: only scores below it count,
// and Undefined (which no defined score reaches) means no limit. It
// returns the index minimising the score, the score, and whether any
// candidate scored below ceil at all; ties resolve to the smallest
// index.
//
// floor is an inclusive lower bound the caller has proven: no
// candidate scores below it (0 always holds). The scan returns at the
// first candidate, in index order, that scores floor — nothing can
// beat it and every later candidate loses the tie — and a ceil at or
// below floor answers "none" without reading a row. A floor that does
// not hold can cost exactness, never memory safety.
//
// Contracts: nz lists word indices of holder in ascending order and
// includes every non-zero holder word (listing zero words is allowed,
// so every index 0..len(holder)-1 is always valid); len(mask) ≥
// len(holder); all rows have one common length, and bits of holder
// AND mask at positions ≥ that length are zero (the packed engines'
// tail convention); len(rows) ≥ 1.
//
// The SWAR trick is in the rejection, not the scoring: a candidate's
// max beats the best so far only if *every* row's lane is below it,
// so eight candidates are tested with one borrow-trick compare per
// row, AND-folded and short-circuited — an improving candidate is
// rare, so most blocks die after one or two row words and never pay
// per-byte work. The bar starts at ceil, so a budget of 128 or less
// puts the lane-parallel rejection to work from the first word; only
// while the bar is above hasLess's 128 ceiling — before the
// first defined candidate of an unbudgeted scan, in practice — are
// candidates scored bit by bit.
func ArgminMaxU8(rows [][]uint8, holder, mask []uint64, nz []int32, floor, ceil uint8) (int, uint8, bool) {
	if ceil <= floor {
		return -1, 0, false // no candidate scores below ceil
	}
	n := len(rows[0])
	bestIdx := -1
	best := ceil // a score must beat it; Undefined lanes never do
	mask = mask[:len(holder)]
	for _, wi := range nz {
		w := holder[wi] & mask[wi]
		if w == 0 {
			continue
		}
		base := int(wi) * 64
		if base+64 > n || best > 128 || bits.OnesCount64(w) < swarBlockMin {
			// The row tail, an unbudgeted scan before its first
			// candidate, and sparse words: score bit by bit.
			for w != 0 {
				idx := base + bits.TrailingZeros64(w)
				w &= w - 1
				// Stop at the first row whose lane is ≥ best: the max can
				// only grow, so the candidate cannot win (ties go to the
				// earlier index), and an Undefined lane fails the same
				// test because best never exceeds Undefined.
				score := uint8(0)
				for r := range rows {
					d := rows[r][idx]
					if d >= best {
						score = best
						break
					}
					if d > score {
						score = d
					}
				}
				if score < best {
					best, bestIdx = score, idx
					if best <= floor {
						return bestIdx, best, true
					}
				}
			}
			continue
		}
		for blk := 0; blk < 8; blk++ {
			bbits := (w >> (blk * 8)) & 0xFF
			if bbits == 0 {
				continue
			}
			off := base + blk*8
			flags := spreadFlags(bbits)
			for r := 0; r < len(rows) && flags != 0; r++ {
				flags &= hasLess(le64(rows[r][off:]), best)
			}
			// Surviving lanes beat the *entry* best on every row; score
			// them in index order, re-comparing because an earlier
			// survivor may have lowered the bar.
			for flags != 0 {
				lane := bits.TrailingZeros64(flags) >> 3
				flags &= flags - 1
				idx := off + lane
				score := uint8(0)
				for r := range rows {
					if d := rows[r][idx]; d > score {
						score = d
					}
				}
				if score < best {
					best, bestIdx = score, idx
					if best <= floor {
						return bestIdx, best, true
					}
				}
			}
		}
	}
	if bestIdx < 0 {
		return -1, 0, false
	}
	return bestIdx, best, true
}

// ArgminSumU8 is ArgminMaxU8's additive sibling, under the same
// contracts: the score of a candidate is the sum over rows of its
// lanes (as uint32, so deep stacks of rows cannot wrap), candidates
// with any Undefined lane are skipped, only scores below the exclusive
// budget ceil count (pass math.MaxUint32 for no limit), ties resolve
// to the smallest index, and the scan returns at the first candidate
// that scores the inclusive, caller-proven floor.
// Sums do not fold lane-wise without widening, so this kernel scans
// candidates bit by bit — it still fuses the AND, the enumeration and
// the argmin into one pass with no materialised candidate set.
func ArgminSumU8(rows [][]uint8, holder, mask []uint64, nz []int32, floor, ceil uint32) (int, uint32, bool) {
	if ceil <= floor {
		return -1, 0, false // no candidate scores below ceil
	}
	bestIdx := -1
	best := ceil
	mask = mask[:len(holder)]
	for _, wi := range nz {
		w := holder[wi] & mask[wi]
		base := int(wi) * 64
		for w != 0 {
			idx := base + bits.TrailingZeros64(w)
			w &= w - 1
			// Stop as soon as the partial sum reaches the bar (the
			// budget, then the best so far): sums only grow, and ties
			// go to the earlier index. An Undefined lane rejects the
			// candidate either way.
			score := uint32(0)
			ok := true
			for r := range rows {
				d := rows[r][idx]
				score += uint32(d)
				if d == Undefined || score >= best {
					ok = false
					break
				}
			}
			if ok {
				best, bestIdx = score, idx
				if best <= floor {
					return bestIdx, best, true
				}
			}
		}
	}
	if bestIdx < 0 {
		return -1, 0, false
	}
	return bestIdx, best, true
}
