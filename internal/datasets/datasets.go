// Package datasets provides the three evaluation datasets of the
// paper as calibrated synthetic stand-ins, plus snapshot IO.
//
// The paper uses the SNAP Slashdot and Epinions signed networks and
// the Wikipedia adminship-election network; those files are not
// available offline, so each dataset here is generated to match the
// published scale and sign statistics (Table 1 of the paper) with the
// generators in internal/gen:
//
//   - Slashdot: 214 users, ≈304 edges, 29.2% negative, sparse and
//     tree-like (diameter 12–14), 1024 Zipf skills. Generated at the
//     paper's exact scale so the exact SBP relation stays feasible,
//     as it is in the paper.
//   - Epinions: heavy-tailed (Chung–Lu) topology, 16.7% negative,
//     523 Zipf skills. Default scale 0.1 → ≈2,885 users / 20,878
//     edges, preserving the paper's average degree ≈14.5.
//   - Wikipedia: denser heavy-tailed topology, 21.5% negative, 500
//     synthetic Zipf skills (the paper itself synthesises Wikipedia's
//     skills the same way). Default scale 0.2 → ≈1,413 users / 20,158
//     edges, preserving average degree ≈28.5.
//
// Signs follow the two-faction mostly-balanced-plus-noise model,
// which reproduces the balance regime of real signed networks
// (internal/gen documents the generators). All generation is
// deterministic in the seed.
package datasets

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/balance"
	"repro/internal/gen"
	"repro/internal/sgraph"
	"repro/internal/signedbfs"
	"repro/internal/skills"
)

// Dataset bundles a signed graph with its skill assignment.
type Dataset struct {
	Name   string
	Graph  *sgraph.Graph
	Assign *skills.Assignment
	// Camps is the planted faction assignment behind the signs
	// (synthetic ground truth; real datasets would not have it).
	Camps []uint8
}

// Names lists the available datasets.
func Names() []string { return []string{"slashdot", "epinions", "wikipedia"} }

// Load builds the named dataset. scale rescales node and edge counts
// for the Chung–Lu datasets (1 = the paper's full size); ≤0 selects
// the default documented on each constructor. Slashdot ignores scale:
// it is always built at the paper's own (tiny) size.
func Load(name string, seed int64, scale float64) (*Dataset, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "slashdot":
		return SlashdotSim(seed)
	case "epinions":
		return EpinionsSim(seed, scale)
	case "wikipedia":
		return WikipediaSim(seed, scale)
	default:
		return nil, fmt.Errorf("datasets: unknown dataset %q (want one of %v)", name, Names())
	}
}

// SlashdotSim builds the Slashdot stand-in: 214 users, ≈304 edges
// (29.2% negative), 1024 Zipf skills — the paper's smallest dataset,
// on which exact SBP is computed.
func SlashdotSim(seed int64) (*Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	const (
		n       = 214
		mTarget = 304
		negFrac = 0.292
	)
	// Leave room for the connectivity bridges Connect adds; the edge
	// count stays within a few percent of the paper's 304.
	topo, err := gen.ErdosRenyi(rng, n, mTarget-24)
	if err != nil {
		return nil, fmt.Errorf("datasets: slashdot topology: %w", err)
	}
	topo.Connect(rng)
	camps, err := gen.CampsForNegFraction(rng, n, negFrac)
	if err != nil {
		return nil, fmt.Errorf("datasets: slashdot camps: %w", err)
	}
	edges, err := gen.FactionSigns(rng, topo, camps, negFrac, 0.03)
	if err != nil {
		return nil, fmt.Errorf("datasets: slashdot signs: %w", err)
	}
	g, err := sgraph.FromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("datasets: slashdot build: %w", err)
	}
	assign, err := skills.GenerateZipf(rng, n, skills.ZipfConfig{
		NumSkills:         1024,
		MeanSkillsPerUser: 5,
	})
	if err != nil {
		return nil, fmt.Errorf("datasets: slashdot skills: %w", err)
	}
	return &Dataset{Name: "slashdot", Graph: g, Assign: assign, Camps: camps}, nil
}

// EpinionsSim builds the Epinions stand-in at the given scale of the
// paper's 28,854 users / 208,778 edges (16.7% negative, 523 skills).
// scale ≤ 0 selects the default 0.1.
func EpinionsSim(seed int64, scale float64) (*Dataset, error) {
	if scale <= 0 {
		scale = 0.1
	}
	return chungLuDataset("epinions", seed, chungLuParams{
		fullUsers:    28854,
		fullEdges:    208778,
		scale:        scale,
		gamma:        2.4,
		negFrac:      0.167,
		noise:        0.05,
		numSkills:    523,
		meanSkill:    5,
		productModel: true, // skills come from product reviews, as in the paper's RED join
	})
}

// WikipediaSim builds the Wikipedia stand-in at the given scale of
// the paper's 7,066 users / 100,790 edges (21.5% negative, 500
// synthetic skills). scale ≤ 0 selects the default 0.2.
func WikipediaSim(seed int64, scale float64) (*Dataset, error) {
	if scale <= 0 {
		scale = 0.2
	}
	return chungLuDataset("wikipedia", seed, chungLuParams{
		fullUsers: 7066,
		fullEdges: 100790,
		scale:     scale,
		gamma:     2.2,
		negFrac:   0.215,
		noise:     0.05,
		numSkills: 500,
		meanSkill: 5,
	})
}

type chungLuParams struct {
	fullUsers, fullEdges int
	scale                float64
	gamma                float64
	negFrac, noise       float64
	numSkills            int
	meanSkill            float64
	// productModel switches the skill generator to the two-level
	// product-review process (products have categories, users review
	// products), matching how the paper builds Epinions skills from
	// the RED dataset. Wikipedia keeps the flat Zipf draw, exactly as
	// the paper synthesises it.
	productModel bool
}

func chungLuDataset(name string, seed int64, p chungLuParams) (*Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(float64(p.fullUsers)*p.scale + 0.5)
	m := int(float64(p.fullEdges)*p.scale + 0.5)
	if n < 10 {
		return nil, fmt.Errorf("datasets: %s scale %g leaves only %d users", name, p.scale, n)
	}
	topo, err := gen.ChungLu(rng, n, m, p.gamma)
	if err != nil {
		return nil, fmt.Errorf("datasets: %s topology: %w", name, err)
	}
	topo.Connect(rng)
	camps, err := gen.CampsForNegFraction(rng, n, p.negFrac)
	if err != nil {
		return nil, fmt.Errorf("datasets: %s camps: %w", name, err)
	}
	edges, err := gen.FactionSigns(rng, topo, camps, p.negFrac, p.noise)
	if err != nil {
		return nil, fmt.Errorf("datasets: %s signs: %w", name, err)
	}
	g, err := sgraph.FromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("datasets: %s build: %w", name, err)
	}
	var assign *skills.Assignment
	if p.productModel {
		assign, err = skills.GenerateProductReviews(rng, n, skills.ProductReviewConfig{
			// A catalogue an order of magnitude larger than the user
			// base, as in review sites.
			NumProducts:        10 * n,
			NumCategories:      p.numSkills,
			MeanReviewsPerUser: 2 * p.meanSkill, // reviews dedupe into ≈meanSkill categories
		})
	} else {
		assign, err = skills.GenerateZipf(rng, n, skills.ZipfConfig{
			NumSkills:         p.numSkills,
			MeanSkillsPerUser: p.meanSkill,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("datasets: %s skills: %w", name, err)
	}
	return &Dataset{Name: name, Graph: g, Assign: assign, Camps: camps}, nil
}

// Stats summarises a dataset as in the paper's Table 1, extended with
// the signed triangle census (the structural-balance diagnostic of
// Leskovec et al. 2010, whose datasets the paper uses).
type Stats struct {
	Name     string
	Users    int
	Edges    int
	NegEdges int
	NegFrac  float64
	Diameter int32
	Skills   int // skills with at least one holder
	// Triangles is the signed triangle census; its BalancedFraction
	// should be high for realistic stand-ins.
	Triangles balance.TriangleCensus
}

// ComputeStats measures the Table 1 row for d. The diameter is exact
// (signedbfs.Diameter: one bit-parallel BFS per 64 sources).
func (d *Dataset) ComputeStats() Stats {
	return Stats{
		Name:      d.Name,
		Users:     d.Graph.NumNodes(),
		Edges:     d.Graph.NumEdges(),
		NegEdges:  d.Graph.NumNegativeEdges(),
		NegFrac:   float64(d.Graph.NumNegativeEdges()) / float64(max(1, d.Graph.NumEdges())),
		Diameter:  signedbfs.Diameter(d.Graph),
		Skills:    len(d.Assign.SkillsWithHolders()),
		Triangles: balance.CountTriangles(d.Graph),
	}
}

// Save writes the dataset as <dir>/<name>.edges and <dir>/<name>.skills.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("datasets: save: %w", err)
	}
	ef, err := os.Create(filepath.Join(dir, d.Name+".edges"))
	if err != nil {
		return fmt.Errorf("datasets: save: %w", err)
	}
	defer ef.Close()
	if err := sgraph.WriteEdgeList(ef, d.Graph, nil); err != nil {
		return err
	}
	sf, err := os.Create(filepath.Join(dir, d.Name+".skills"))
	if err != nil {
		return fmt.Errorf("datasets: save: %w", err)
	}
	defer sf.Close()
	return skills.WriteTSV(sf, d.Assign)
}
