//go:build amd64.v3

package kernels

import "math/bits"

// Variant names the compiled-in word-kernel implementation; see
// kernels_generic.go for the portable twin.
func Variant() string { return "amd64v3" }

// andCountWords under GOAMD64=v3: OnesCount64 compiles to an
// unconditional POPCNT (no feature-check branch), so the win left on
// the table is POPCNT's false output-register dependency — a fused
// AND+POPCNT 8-wide unroll over four independent accumulators keeps
// four dependency chains in flight.
func andCountWords(a, b []uint64) int {
	b = b[:len(a)]
	c0, c1, c2, c3 := 0, 0, 0, 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		c0 += bits.OnesCount64(a[i]&b[i]) + bits.OnesCount64(a[i+1]&b[i+1])
		c1 += bits.OnesCount64(a[i+2]&b[i+2]) + bits.OnesCount64(a[i+3]&b[i+3])
		c2 += bits.OnesCount64(a[i+4]&b[i+4]) + bits.OnesCount64(a[i+5]&b[i+5])
		c3 += bits.OnesCount64(a[i+6]&b[i+6]) + bits.OnesCount64(a[i+7]&b[i+7])
	}
	for ; i < len(a); i++ {
		c0 += bits.OnesCount64(a[i] & b[i])
	}
	return (c0 + c1) + (c2 + c3)
}
