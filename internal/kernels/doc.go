// Package kernels owns the packed inner loops of the serving stack:
// word-level AND/popcount over bitset rows, the fused
// AND-popcount-argmin scan behind the team solver's MinDistance
// picker, and SWAR (SIMD-within-a-register) scans over uint8 distance
// rows. Everything above it — container.Bitset, the compat engines,
// the team solver — calls these entry points instead of carrying its
// own word loop, so there is exactly one copy of each hot loop to
// test, fuzz and tune.
//
// # Kernels
//
//   - Count / AndCount / And / AndInto: unrolled popcount accumulation
//     over []uint64 rows. AndCount never materialises the
//     intersection; AndInto intersects in place and returns the
//     population in the same pass.
//   - ArgminMaxU8 / ArgminSumU8: the fused candidate scan. Candidates
//     are the set bits of (holder AND mask) in the holder words a word
//     list names; each candidate's score is the max (or sum) over a
//     set of packed uint8 rows at its index, with lane value 0xFF
//     meaning "undefined — skip this candidate". The intermediate
//     candidate mask is never materialised: one pass over the listed
//     holder words carries best-score/best-index through the loop.
//     The word list must be ascending (candidate order, and so the
//     smallest-index tie-break, follows it) and name every non-zero
//     holder word; listing zero words is allowed, so 0..len(holder)-1
//     is always a valid list. A sparse holder set — a rare skill's,
//     via skills.HolderIndex.NonZero — is then scanned in a handful
//     of words, not the row's width. Both take an exclusive budget:
//     only scores below it count, so a caller that needs a score
//     under some bound (the solver's best team so far) rejects
//     everything else inside the scan. ArgminMaxU8 rejects eight
//     candidates at a time: a max improves on the best so far only if
//     every row's lane is below it, so one borrow-safe compare per
//     row, AND-folded with the candidate flags and short-circuited,
//     kills whole blocks before any per-byte scoring.
//
// # Variants
//
// Two implementations of the word kernels are selected at compile
// time by build tags (never at run time — no dispatch on the hot
// path): kernels_generic.go is the portable path, and
// kernels_amd64v3.go takes over when the binary is compiled with
// GOAMD64=v3 (the toolchain defines the amd64.v3 build tag), where
// bits.OnesCount64 is an unconditional POPCNT and a wider unroll with
// independent accumulators hides the instruction's output-register
// dependency. Variant reports which one is compiled in; it is
// surfaced through compat.Stats.Kernels, the tfsn batch report and
// the serving daemon's /stats so recorded benchmarks stay
// attributable to the kernel path that produced them.
//
// Every kernel has a naive reference implementation in the package
// tests; the property suite drives kernel against reference over
// randomized words, all tail lengths 0–63, and the empty and
// single-word edges, and FuzzKernels does the same from fuzzed bytes.
// The undefined sentinel (0xFF) and the "tail bits beyond the row
// length are zero" convention are owned by the callers; the kernels
// only assume what each function documents.
package kernels
