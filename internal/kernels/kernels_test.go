// The kernel property suite: every kernel against a naive reference
// over randomized words and row contents, covering the empty and
// single-word edges and every tail length 0–63. The suite runs
// unchanged under both compiled-in variants (go test with and without
// GOAMD64=v3 — CI runs both), so the portable and arch-gated paths
// are held to the same reference.

package kernels

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// --- naive references -------------------------------------------------------

func refAndCount(a, b []uint64) int {
	c := 0
	for i := range a {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// refArgmin scores every candidate bit of holder&mask one by one:
// max or sum over the rows, Undefined lanes exclude the candidate,
// scores at or above the exclusive budget ceil do not count, first
// minimum wins.
func refArgmin(rows [][]uint8, holder, mask []uint64, sum bool, ceil uint32) (int, uint32, bool) {
	bestIdx, best := -1, uint32(0)
	for wi := range holder {
		w := holder[wi] & mask[wi]
		for j := 0; j < 64; j++ {
			if w&(1<<uint(j)) == 0 {
				continue
			}
			idx := wi*64 + j
			score, defined := uint32(0), true
			for r := range rows {
				d := rows[r][idx]
				if d == Undefined {
					defined = false
					break
				}
				if sum {
					score += uint32(d)
				} else if uint32(d) > score {
					score = uint32(d)
				}
			}
			if !defined || score >= ceil {
				continue
			}
			if bestIdx < 0 || score < best {
				best, bestIdx = score, idx
			}
		}
	}
	return bestIdx, best, bestIdx >= 0
}

// maxFloor returns the largest floor valid for a candidate set: the
// reference minimum score over its defined candidates, ignoring any
// budget. With no defined candidate every floor holds, and a few
// small ones are tried.
func maxFloor(rows [][]uint8, holder, mask []uint64, sum bool) uint32 {
	if _, score, ok := refArgmin(rows, holder, mask, sum, math.MaxUint32); ok {
		return score
	}
	return 3
}

// --- generators -------------------------------------------------------------

// wordLists returns the two word lists the argmin kernels are driven
// with for one holder set: exactly its non-zero words, and every word
// index (zero words listed too, which the contract allows). Both must
// give the reference's answer.
func wordLists(holder []uint64) map[string][]int32 {
	var nonZero []int32
	all := make([]int32, len(holder))
	for i, w := range holder {
		all[i] = int32(i)
		if w != 0 {
			nonZero = append(nonZero, int32(i))
		}
	}
	return map[string][]int32{"nonzero": nonZero, "all": all}
}

// randWords builds a word slice for n bits with all bits ≥ n zero —
// the packed engines' tail convention.
func randWords(rng *rand.Rand, n int, density float64) []uint64 {
	ws := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			ws[i>>6] |= 1 << uint(i&63)
		}
	}
	return ws
}

// randRow builds a packed uint8 row: small values (BFS depths) with a
// sprinkling of Undefined, plus occasional large values to cross the
// borrow-trick's 128 threshold.
func randRow(rng *rand.Rand, n int) []uint8 {
	row := make([]uint8, n)
	for i := range row {
		switch r := rng.Float64(); {
		case r < 0.15:
			row[i] = Undefined
		case r < 0.25:
			row[i] = uint8(rng.Intn(255)) // up to 0xFE
		default:
			row[i] = uint8(rng.Intn(12))
		}
	}
	return row
}

// sizes covers the edges the kernels branch on: empty, sub-word,
// every tail length 0–63 around the one- and two-word boundaries, and
// a multi-word bulk size.
func sizes() []int {
	s := []int{0, 1, 7, 8, 9, 63, 64, 65}
	for tail := 0; tail < 64; tail++ {
		s = append(s, 128+tail, 256+tail)
	}
	return s
}

// --- properties -------------------------------------------------------------

func TestVariantNonEmpty(t *testing.T) {
	if Variant() == "" {
		t.Fatal("Variant() must name the compiled kernel path")
	}
	t.Logf("compiled kernel variant: %s", Variant())
}

func TestAndCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range sizes() {
		for trial := 0; trial < 8; trial++ {
			a := randWords(rng, n, rng.Float64())
			b := randWords(rng, n, rng.Float64())
			if got, want := AndCount(a, b), refAndCount(a, b); got != want {
				t.Fatalf("n=%d: AndCount=%d want %d", n, got, want)
			}
			// b longer than a is allowed: extra words must be ignored.
			if n > 0 {
				longer := append(append([]uint64(nil), b...), ^uint64(0))
				if got := AndCount(a, longer); got != refAndCount(a, b) {
					t.Fatalf("n=%d: AndCount with longer b=%d want %d", n, got, refAndCount(a, b))
				}
			}
		}
	}
}

func TestAndMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range sizes() {
		for trial := 0; trial < 8; trial++ {
			a := randWords(rng, n, rng.Float64())
			b := randWords(rng, n, rng.Float64())

			got := append([]uint64(nil), a...)
			And(got, b)
			for i := range got {
				if want := a[i] & b[i]; got[i] != want {
					t.Fatalf("n=%d word %d: And=%x want %x", n, i, got[i], want)
				}
			}
		}
	}
}

// argminCeils lists the budgets testArgmin and FuzzKernels drive the
// kernels with: none, the empty budget, both sides of the borrow
// trick's 128 threshold, the largest defined score, and Undefined (no
// limit for the max kernel). For the sum kernel, noLimit adds a
// budget above any sum the rows can reach.
func argminCeils(sum bool, nRows int) []uint32 {
	ceils := []uint32{0, 1, 2, 5, 11, 128, 129, 0xFE, Undefined}
	if sum {
		ceils = append(ceils, uint32(nRows)*0xFF+1, math.MaxUint32)
	}
	return ceils
}

// runArgmin calls the max or sum kernel over the word list nz with a
// floor and a ceiling clamped to the kernel's score type, widening the
// score for comparison.
func runArgmin(rows [][]uint8, holder, mask []uint64, nz []int32, sum bool, floor, ceil uint32) (int, uint32, bool) {
	if sum {
		return ArgminSumU8(rows, holder, mask, nz, floor, ceil)
	}
	idx, score, ok := ArgminMaxU8(rows, holder, mask, nz, uint8(min(floor, Undefined)), uint8(min(ceil, Undefined)))
	return idx, uint32(score), ok
}

func testArgmin(t *testing.T, sum bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	for _, n := range sizes() {
		for _, nRows := range []int{1, 2, 3, 5} {
			for trial := 0; trial < 6; trial++ {
				rows := make([][]uint8, nRows)
				for r := range rows {
					rows[r] = randRow(rng, n)
					if trial >= 3 {
						// No lane reads 0, as no member-to-candidate
						// distance does in the solver: the floors
						// above 0 get candidates to stop at.
						for i, d := range rows[r] {
							rows[r][i] = max(d, 1)
						}
					}
				}
				// Mix sparse and dense candidate sets so both the
				// bit-by-bit and the 8-lane paths are exercised.
				density := []float64{0.02, 0.3, 0.95}[trial%3]
				holder := randWords(rng, n, density)
				mask := randWords(rng, n, 0.8)
				top := maxFloor(rows, holder, mask, sum)
				for _, ceil := range argminCeils(sum, nRows) {
					wantIdx, wantScore, wantOK := refArgmin(rows, holder, mask, sum, ceil)
					// Every valid floor must give the floor-0 answer.
					for floor := uint32(0); floor <= top; floor++ {
						for list, nz := range wordLists(holder) {
							gotIdx, gotScore, gotOK := runArgmin(rows, holder, mask, nz, sum, floor, ceil)
							if gotOK != wantOK || gotIdx != wantIdx || (wantOK && gotScore != wantScore) {
								t.Fatalf("n=%d rows=%d sum=%v floor=%d ceil=%d %s: got (%d,%d,%v) want (%d,%d,%v)",
									n, nRows, sum, floor, ceil, list, gotIdx, gotScore, gotOK, wantIdx, wantScore, wantOK)
							}
						}
					}
					// The kernels read only listed words: an empty list
					// (a holderless skill's) finds no candidate.
					if idx, _, ok := runArgmin(rows, holder, mask, nil, sum, 0, ceil); ok {
						t.Fatalf("n=%d rows=%d sum=%v ceil=%d: empty word list picked %d", n, nRows, sum, ceil, idx)
					}
				}
			}
		}
	}
}

func TestArgminMaxU8MatchesReference(t *testing.T) { testArgmin(t, false) }
func TestArgminSumU8MatchesReference(t *testing.T) { testArgmin(t, true) }

// TestArgminMaxU8BudgetFromFirstWord: a dense first word under a
// budget of 128 or less runs the lane-parallel rejection before any
// candidate has scored. Lanes at or above the budget and Undefined
// lanes must be rejected there, and the best lane below the budget
// found, including when it sits behind a rejected lane of its block.
func TestArgminMaxU8BudgetFromFirstWord(t *testing.T) {
	const n = 256
	rows := [][]uint8{make([]uint8, n), make([]uint8, n)}
	for i := 0; i < n; i++ {
		rows[0][i], rows[1][i] = 100, 120
	}
	rows[0][3] = Undefined // would score 0 on row 1 alone
	rows[1][3] = 0
	rows[0][5], rows[1][5] = 7, 9 // the winner: max 9
	rows[0][6], rows[1][6] = 9, 7 // ties the winner at a later index
	rows[1][70] = 2               // a later word: max 100, over budget
	holder := []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	mask := holder
	nz := []int32{0, 1, 2, 3}
	for _, ceil := range []uint32{0, 1, 9, 10, 100, 120, 121, 128} {
		gotIdx, gotScore, gotOK := runArgmin(rows, holder, mask, nz, false, 0, ceil)
		wantIdx, wantScore, wantOK := refArgmin(rows, holder, mask, false, ceil)
		if gotOK != wantOK || gotIdx != wantIdx || gotScore != wantScore {
			t.Fatalf("ceil=%d: got (%d,%d,%v) want (%d,%d,%v)", ceil, gotIdx, gotScore, gotOK, wantIdx, wantScore, wantOK)
		}
		if ceil > 9 && (!gotOK || gotIdx != 5 || gotScore != 9) {
			t.Fatalf("ceil=%d: got (%d,%d,%v), want the index-5 winner at 9", ceil, gotIdx, gotScore, gotOK)
		}
	}
}

// TestArgminMaxU8AllUndefined: a populated candidate set whose every
// candidate is undefined must report ok=false, not a bogus pick.
func TestArgminMaxU8AllUndefined(t *testing.T) {
	n := 130
	row := make([]uint8, n)
	for i := range row {
		row[i] = Undefined
	}
	holder := randWords(rand.New(rand.NewSource(5)), n, 0.9)
	mask := make([]uint64, len(holder))
	for i := range mask {
		mask[i] = ^uint64(0)
	}
	mask[len(mask)-1] = (1 << uint(n&63)) - 1
	nz := wordLists(holder)["all"]
	if idx, _, ok := ArgminMaxU8([][]uint8{row}, holder, mask, nz, 0, Undefined); ok {
		t.Fatalf("all-undefined row produced a pick at %d", idx)
	}
	if idx, _, ok := ArgminSumU8([][]uint8{row}, holder, mask, nz, 0, math.MaxUint32); ok {
		t.Fatalf("all-undefined row produced a sum pick at %d", idx)
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

// spreadBits expands the low 8 bits of b into byte lanes: lane j is
// 0xFF when bit j is set, 0x00 otherwise.
func spreadBits(b uint64) uint64 {
	hi := spreadFlags(b)
	return hi | (hi - (hi >> 7))
}

// TestSWARHelpers pins the lane arithmetic exhaustively on single
// lanes (all 256×256 byte pairs for max, all byte values × thresholds
// for the borrow trick) and on the bit-spread table.
func TestSWARHelpers(t *testing.T) {
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			// Lane 3 carries the pair; other lanes carry noise that
			// must not leak across.
			xs := uint64(x)<<24 | 0x11000000ee0022a1
			ys := uint64(y)<<24 | 0x0fee000011aa0005
			xs &^= 0xFF << 24
			ys &^= 0xFF << 24
			xs |= uint64(x) << 24
			ys |= uint64(y) << 24
			got := uint8(maxU8x8(xs, ys) >> 24)
			want := uint8(x)
			if y > x {
				want = uint8(y)
			}
			if got != want {
				t.Fatalf("maxU8x8 lane: max(%d,%d)=%d want %d", x, y, got, want)
			}
		}
	}
	for v := 0; v < 256; v++ {
		for n := 0; n <= 128; n++ {
			flag := hasLess(uint64(v)*lsb8, uint8(n)) != 0
			if flag != (v < n) {
				t.Fatalf("hasLess(%d,%d)=%v want %v", v, n, flag, v < n)
			}
		}
	}
	// Per lane, not just any lane: every lane of mixed words is flagged
	// exactly when it is below n, whatever its neighbours hold (a lane
	// below n must not hide or fake a flag in the lane above).
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20000; trial++ {
		x := rng.Uint64()
		if trial%2 == 0 {
			x &= spreadBits(rng.Uint64()) // zero a random half of the lanes
		}
		n := uint8(rng.Intn(129))
		got := hasLess(x, n)
		for lane := 0; lane < 8; lane++ {
			want := uint8(x>>(8*lane)) < n
			if (got>>(8*lane+7))&1 == 1 != want {
				t.Fatalf("hasLess(%#x,%d) lane %d = %v want %v", x, n, lane, !want, want)
			}
		}
	}
	for b := 0; b < 256; b++ {
		got := spreadBits(uint64(b))
		var want uint64
		for j := 0; j < 8; j++ {
			if b&(1<<j) != 0 {
				want |= 0xFF << uint(8*j)
			}
		}
		if got != want {
			t.Fatalf("spreadBits(%#x)=%#x want %#x", b, got, want)
		}
	}
}

// --- microbenchmarks --------------------------------------------------------

const benchBits = 1154 // the Epinions stand-in's row width at 4% scale

func benchWords(seed int64, density float64) []uint64 {
	return randWords(rand.New(rand.NewSource(seed)), benchBits, density)
}

func BenchmarkAndCount(b *testing.B) {
	x := benchWords(1, 0.3)
	y := benchWords(2, 0.3)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += AndCount(x, y)
	}
	if sink == 0 {
		b.Fatal("empty")
	}
}

func benchRows(nRows int) [][]uint8 {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]uint8, nRows)
	for r := range rows {
		rows[r] = randRow(rng, benchBits)
	}
	return rows
}

// BenchmarkArgminMaxU8 runs the max kernel over a dense holder set
// (every word populated) and a sparse one: a rare skill's holder set
// as the solver's pick sees it, four holders over the row's 19
// words, scanned through its non-zero word list.
func BenchmarkArgminMaxU8(b *testing.B) {
	rows := benchRows(4)
	mask := benchWords(9, 0.5)
	sparse := make([]uint64, len(mask))
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 4; i++ {
		u := rng.Intn(benchBits)
		sparse[u>>6] |= 1 << uint(u&63)
	}
	for _, c := range []struct {
		name   string
		holder []uint64
	}{
		{"dense", benchWords(8, 0.3)},
		{"sparse", sparse},
	} {
		nz := wordLists(c.holder)["nonzero"]
		b.Run(c.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				idx, _, _ := ArgminMaxU8(rows, c.holder, mask, nz, 0, Undefined)
				sink += idx
			}
			_ = sink
		})
	}
}

// BenchmarkArgminMaxU8Scalar is the pre-kernel shape: materialise the
// candidate list, then score each candidate through per-index loads —
// the baseline BenchmarkArgminMaxU8 is compared against.
func BenchmarkArgminMaxU8Scalar(b *testing.B) {
	rows := benchRows(4)
	holder := benchWords(8, 0.3)
	mask := benchWords(9, 0.5)
	cand := make([]int, 0, benchBits)
	sink := 0
	for i := 0; i < b.N; i++ {
		cand = cand[:0]
		for wi := range holder {
			w := holder[wi] & mask[wi]
			for w != 0 {
				cand = append(cand, wi*64+bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
		bestIdx, best := -1, uint8(Undefined)
		for _, idx := range cand {
			score := uint8(0)
			for r := range rows {
				d := rows[r][idx]
				if d >= score {
					score = d
				}
			}
			if score < best {
				best, bestIdx = score, idx
			}
		}
		sink += bestIdx
	}
	_ = sink
}
