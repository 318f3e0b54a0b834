package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sgraph"
)

// RandomCamps splits n nodes into two factions, assigning each node to
// faction 0 with probability fracA.
func RandomCamps(rng *rand.Rand, n int, fracA float64) []uint8 {
	camps := make([]uint8, n)
	for i := range camps {
		if rng.Float64() >= fracA {
			camps[i] = 1
		}
	}
	return camps
}

// CampsForNegFraction splits n nodes into two factions sized so that
// the expected fraction of inter-faction edges (under camp-independent
// edge placement) equals negFrac: a faction split p gives 2p(1−p)
// inter-faction edges, so p = (1 − √(1−2f))/2. Using this with
// FactionSigns keeps the sign calibration's corrective flips — and
// therefore the frustration it introduces — near the noise level,
// preserving the mostly-balanced regime of real signed networks.
// negFrac must be in [0, 0.5].
func CampsForNegFraction(rng *rand.Rand, n int, negFrac float64) ([]uint8, error) {
	if negFrac < 0 || negFrac > 0.5 {
		return nil, fmt.Errorf("gen: negFrac = %g out of [0, 0.5] (two factions cannot exceed 50%% inter-faction edges in expectation)", negFrac)
	}
	p := (1 - math.Sqrt(1-2*negFrac)) / 2
	return RandomCamps(rng, n, p), nil
}

// UniformSigns labels every topology edge negative independently with
// probability negFrac. The result has no particular balance structure
// (real networks do; prefer FactionSigns for realistic stand-ins).
func UniformSigns(rng *rand.Rand, t *Topology, negFrac float64) []sgraph.Edge {
	edges := make([]sgraph.Edge, len(t.Edges))
	for i, e := range t.Edges {
		s := sgraph.Positive
		if rng.Float64() < negFrac {
			s = sgraph.Negative
		}
		edges[i] = sgraph.Edge{U: e[0], V: e[1], Sign: s}
	}
	return edges
}

// FactionSigns labels edges by the two-faction balance model and then
// calibrates the global negative fraction:
//
//  1. intra-faction edges start positive, inter-faction negative
//     (a perfectly balanced signing);
//  2. a noise fraction of edges flips sign, introducing the
//     frustration real networks exhibit;
//  3. random edges flip further until exactly
//     round(negFrac·|E|) edges are negative, so dataset stand-ins hit
//     the paper's published negative-edge percentages.
//
// The result is "mostly balanced plus noise", the regime in which the
// paper's SBP ≈ NNE observation holds.
func FactionSigns(rng *rand.Rand, t *Topology, camps []uint8, negFrac, noise float64) ([]sgraph.Edge, error) {
	if len(camps) != t.N {
		return nil, fmt.Errorf("gen: %d camps for %d nodes", len(camps), t.N)
	}
	if negFrac < 0 || negFrac > 1 {
		return nil, fmt.Errorf("gen: negFrac = %g out of [0,1]", negFrac)
	}
	if noise < 0 || noise > 1 {
		return nil, fmt.Errorf("gen: noise = %g out of [0,1]", noise)
	}
	edges := make([]sgraph.Edge, len(t.Edges))
	negCount := 0
	for i, e := range t.Edges {
		s := sgraph.Positive
		if camps[e[0]] != camps[e[1]] {
			s = sgraph.Negative
		}
		if rng.Float64() < noise {
			s = -s
		}
		if s == sgraph.Negative {
			negCount++
		}
		edges[i] = sgraph.Edge{U: e[0], V: e[1], Sign: s}
	}

	target := int(float64(len(edges))*negFrac + 0.5)
	// Flip random edges of the over-represented sign until the count
	// matches. Permute indices once for an unbiased pick.
	perm := rng.Perm(len(edges))
	for _, i := range perm {
		if negCount == target {
			break
		}
		e := &edges[i]
		if negCount < target && e.Sign == sgraph.Positive {
			e.Sign = sgraph.Negative
			negCount++
		} else if negCount > target && e.Sign == sgraph.Negative {
			e.Sign = sgraph.Positive
			negCount--
		}
	}
	if negCount != target {
		return nil, fmt.Errorf("gen: cannot reach %d negative edges on %d edges", target, len(edges))
	}
	return edges, nil
}
