package signedteams

import (
	"math/rand"

	"repro/internal/balance"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/signedbfs"
	"repro/internal/skills"
)

// Dataset bundles a signed graph with a skill assignment — the unit
// the paper's evaluation runs on.
type Dataset = datasets.Dataset

// DatasetStats is a dataset's Table 1 row.
type DatasetStats = datasets.Stats

// DatasetNames lists the built-in dataset stand-ins: "slashdot",
// "epinions", "wikipedia".
func DatasetNames() []string { return datasets.Names() }

// LoadDataset builds a named dataset stand-in deterministically from
// a seed. scale rescales the Chung–Lu datasets (0 = default).
func LoadDataset(name string, seed int64, scale float64) (*Dataset, error) {
	return datasets.Load(name, seed, scale)
}

// GenerateZipfSkills assigns Zipf-distributed synthetic skills to
// numUsers users, as the paper does for Wikipedia.
func GenerateZipfSkills(rng *rand.Rand, numUsers int, cfg ZipfConfig) (*Assignment, error) {
	return skills.GenerateZipf(rng, numUsers, cfg)
}

// ProductReviewConfig drives GenerateProductSkills.
type ProductReviewConfig = skills.ProductReviewConfig

// GenerateProductSkills assigns skills through a two-level
// product-review process (products carry categories, users review
// products), as the paper derives Epinions skills from the RED
// dataset.
func GenerateProductSkills(rng *rand.Rand, numUsers int, cfg ProductReviewConfig) (*Assignment, error) {
	return skills.GenerateProductReviews(rng, numUsers, cfg)
}

// Synthetic graph generation (the topology/sign toolkit behind the
// dataset stand-ins).
type (
	// Topology is an unsigned edge skeleton produced by the graph
	// generators; label its edges with FactionSigns or UniformSigns
	// and pass them to FromEdges.
	Topology = gen.Topology
)

// ErdosRenyi samples a uniform G(n, m) topology.
func ErdosRenyi(rng *rand.Rand, n, m int) (*Topology, error) { return gen.ErdosRenyi(rng, n, m) }

// ChungLu samples a topology with a power-law (exponent gamma)
// expected degree sequence.
func ChungLu(rng *rand.Rand, n, m int, gamma float64) (*Topology, error) {
	return gen.ChungLu(rng, n, m, gamma)
}

// WattsStrogatz samples a small-world ring-lattice topology.
func WattsStrogatz(rng *rand.Rand, n, k int, beta float64) (*Topology, error) {
	return gen.WattsStrogatz(rng, n, k, beta)
}

// RandomCamps splits n nodes into two factions.
func RandomCamps(rng *rand.Rand, n int, fracA float64) []uint8 {
	return gen.RandomCamps(rng, n, fracA)
}

// CampsForNegFraction splits n nodes into two factions sized so that
// inter-faction edges naturally make up negFrac of all edges, keeping
// FactionSigns' output mostly balanced.
func CampsForNegFraction(rng *rand.Rand, n int, negFrac float64) ([]uint8, error) {
	return gen.CampsForNegFraction(rng, n, negFrac)
}

// FactionSigns labels a topology's edges with the mostly-balanced
// two-faction model calibrated to an exact negative-edge fraction.
func FactionSigns(rng *rand.Rand, t *Topology, camps []uint8, negFrac, noise float64) ([]Edge, error) {
	return gen.FactionSigns(rng, t, camps, negFrac, noise)
}

// UniformSigns labels each edge negative independently with
// probability negFrac.
func UniformSigns(rng *rand.Rand, t *Topology, negFrac float64) []Edge {
	return gen.UniformSigns(rng, t, negFrac)
}

// Structural balance utilities.

// IsBalanced reports whether the graph has no cycle with an odd
// number of negative edges (Harary's theorem).
func IsBalanced(g *Graph) bool { return balance.IsBalanced(g) }

// BalanceCamps returns a two-faction split certifying balance, or
// ok=false for an unbalanced graph.
func BalanceCamps(g *Graph) (camps []uint8, ok bool) { return balance.Camps(g) }

// Frustration upper-bounds the frustration index: the number of edges
// violated by the best two-faction split found heuristically.
func Frustration(g *Graph) int { return balance.Frustration(g) }

// TriangleCensus is the count of signed triangles by type; balanced
// ones (PPP, PNN) dominate in real signed networks.
type TriangleCensus = balance.TriangleCensus

// CountTriangles enumerates the graph's signed triangle census.
func CountTriangles(g *Graph) TriangleCensus { return balance.CountTriangles(g) }

// Graph metrics.

// Distances returns single-source BFS distances ignoring signs
// (−1 = unreachable).
func Distances(g *Graph, src NodeID) []int32 { return signedbfs.Distances(g, src) }

// Diameter computes the exact graph diameter from bit-parallel BFS
// sweeps of 64 sources each.
func Diameter(g *Graph) int32 { return signedbfs.Diameter(g) }

// AverageDistance returns the exact mean pairwise BFS distance over
// reachable pairs, from bit-parallel BFS sweeps of 64 sources each.
func AverageDistance(g *Graph) float64 { return signedbfs.AverageDistance(g) }
