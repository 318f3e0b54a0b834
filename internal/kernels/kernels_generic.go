//go:build !amd64.v3

package kernels

import "math/bits"

// Variant names the compiled-in word-kernel implementation; it is
// stamped into compat.Stats, the tfsn batch report and /stats so
// recorded numbers are attributable to a kernel path.
func Variant() string { return "portable" }

// andCountWords is the portable fused AND+popcount: 4-wide unrolled
// with two independent accumulators, so the loop overhead and (on
// pre-v3 amd64) the OnesCount64 feature-check branch amortise over
// four words; the intersection is never materialised.
func andCountWords(a, b []uint64) int {
	b = b[:len(a)]
	c0, c1 := 0, 0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		c0 += bits.OnesCount64(a[i]&b[i]) + bits.OnesCount64(a[i+1]&b[i+1])
		c1 += bits.OnesCount64(a[i+2]&b[i+2]) + bits.OnesCount64(a[i+3]&b[i+3])
	}
	for ; i < len(a); i++ {
		c0 += bits.OnesCount64(a[i] & b[i])
	}
	return c0 + c1
}
