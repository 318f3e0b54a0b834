package compat

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/balance"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// statTriangle: 0 −(+) 1 −(+) 2, 0 −(−) 2.
func statTriangle() *sgraph.Graph {
	return sgraph.MustFromEdges(3, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Positive},
		{U: 1, V: 2, Sign: sgraph.Positive},
		{U: 0, V: 2, Sign: sgraph.Negative},
	})
}

func TestComputeStatsTriangleNNE(t *testing.T) {
	r := mustNew(NNE, statTriangle(), Options{})
	s, err := ComputeStats(r, StatsOptions{})
	if err != nil {
		t.Fatalf("ComputeStats: %v", err)
	}
	// Ordered pairs: 6; compatible: (0,1),(1,0),(1,2),(2,1) = 4.
	if s.Pairs != 6 || s.CompatiblePairs != 4 {
		t.Fatalf("pairs = %d/%d, want 4/6", s.CompatiblePairs, s.Pairs)
	}
	if f := s.UserFraction(); math.Abs(f-4.0/6.0) > 1e-12 {
		t.Fatalf("UserFraction = %g, want 2/3", f)
	}
	// All compatible pairs are adjacent: avg distance 1.
	if d := s.AvgDistance(); math.Abs(d-1) > 1e-12 {
		t.Fatalf("AvgDistance = %g, want 1", d)
	}
	if s.SourcesScanned != 3 || s.TotalSources != 3 {
		t.Fatalf("sources = %d/%d", s.SourcesScanned, s.TotalSources)
	}
}

func TestComputeStatsTriangleSPA(t *testing.T) {
	r := mustNew(SPA, statTriangle(), Options{})
	s, err := ComputeStats(r, StatsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same compatible set as NNE on this graph.
	if s.CompatiblePairs != 4 {
		t.Fatalf("compatible = %d, want 4", s.CompatiblePairs)
	}
}

func TestComputeStatsWithSkills(t *testing.T) {
	g := statTriangle()
	u := skills.GenerateUniverse(3)
	a := skills.NewAssignment(u, 3)
	a.MustAdd(0, 0) // user 0: skill 0
	a.MustAdd(1, 1) // user 1: skill 1
	a.MustAdd(2, 2) // user 2: skill 2
	r := mustNew(NNE, g, Options{})
	s, err := ComputeStats(r, StatsOptions{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if s.Skills == nil {
		t.Fatal("skill matrix not computed")
	}
	// Compatible user pairs: (0,1),(1,2) → skill pairs (0,1),(1,2)
	// compatible; (0,2) not.
	if !s.Skills.Compatible(0, 1) || !s.Skills.Compatible(1, 2) {
		t.Fatal("expected skill pairs missing")
	}
	if s.Skills.Compatible(0, 2) {
		t.Fatal("skill pair (0,2) must be incompatible")
	}
	if f := s.Skills.Fraction(a); math.Abs(f-2.0/3.0) > 1e-12 {
		t.Fatalf("skill fraction = %g, want 2/3", f)
	}
}

func TestSkillMatrixSelfCompatibility(t *testing.T) {
	// One user holding two skills makes the pair compatible even with
	// no other compatible users.
	g := sgraph.MustFromEdges(2, []sgraph.Edge{{U: 0, V: 1, Sign: sgraph.Negative}})
	u := skills.GenerateUniverse(2)
	a := skills.NewAssignment(u, 2)
	a.MustAdd(0, 0)
	a.MustAdd(0, 1)
	r := mustNew(NNE, g, Options{})
	s, err := ComputeStats(r, StatsOptions{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Skills.Compatible(0, 1) {
		t.Fatal("self-compatibility must mark the skill pair")
	}
	if f := s.Skills.Fraction(a); f != 1 {
		t.Fatalf("skill fraction = %g, want 1", f)
	}
}

func TestSkillMatrixTaskFeasible(t *testing.T) {
	m := NewSkillMatrix(4)
	m.set(0, 1)
	m.set(1, 2)
	m.set(0, 2)
	u := skills.GenerateUniverse(4)
	a := skills.NewAssignment(u, 3)
	a.MustAdd(0, 0)
	a.MustAdd(1, 1)
	a.MustAdd(2, 2)
	if !m.TaskFeasible(a, skills.NewTask(0, 1, 2)) {
		t.Fatal("task {0,1,2} should be feasible")
	}
	// Skill 3 has no holders.
	if m.TaskFeasible(a, skills.NewTask(0, 3)) {
		t.Fatal("task with holderless skill must be infeasible")
	}
	// Pair (0,1) compatible but (0,2),(1,2) fine; make (1,3) missing.
	a.MustAdd(2, 3)
	if m.TaskFeasible(a, skills.NewTask(1, 3)) {
		t.Fatal("task with incompatible skill pair must be infeasible")
	}
}

func TestComputeStatsSampledApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randomSignedGraph(rng, 120, 600, 0.25)
	r := mustNew(SPO, g, Options{})
	exact, err := ComputeStats(r, StatsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Sample half the sources.
	var sources []sgraph.NodeID
	perm := rng.Perm(120)
	for _, i := range perm[:60] {
		sources = append(sources, sgraph.NodeID(i))
	}
	sampled, err := ComputeStats(r, StatsOptions{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.SourcesScanned != 60 {
		t.Fatalf("scanned %d sources, want 60", sampled.SourcesScanned)
	}
	if math.Abs(sampled.UserFraction()-exact.UserFraction()) > 0.1 {
		t.Fatalf("sampled fraction %g too far from exact %g",
			sampled.UserFraction(), exact.UserFraction())
	}
}

func TestComputeStatsEmptySources(t *testing.T) {
	r := mustNew(NNE, statTriangle(), Options{})
	s, err := ComputeStats(r, StatsOptions{Sources: []sgraph.NodeID{}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pairs != 0 || s.UserFraction() != 0 || s.AvgDistance() != 0 {
		t.Fatal("empty source scan must be empty")
	}
}

func TestComputeStatsErrorPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	b := sgraph.NewBuilder(14)
	for u := 0; u < 14; u++ {
		for v := u + 1; v < 14; v++ {
			s := sgraph.Positive
			if rng.Intn(2) == 0 {
				s = sgraph.Negative
			}
			b.AddEdge(sgraph.NodeID(u), sgraph.NodeID(v), s)
		}
	}
	r := mustNew(SBP, b.MustBuild(), Options{Exact: balance.ExactOptions{MaxExpanded: 10}})
	if _, err := ComputeStats(r, StatsOptions{}); err == nil {
		t.Fatal("budget error swallowed by ComputeStats")
	}
}

// TestComputeStatsMatchesPointQueries: the streamed statistics must
// agree with pairwise point queries through the public interface.
func TestComputeStatsMatchesPointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	g := randomSignedGraph(rng, 25, 90, 0.3)
	for _, k := range []Kind{DPE, SPA, SPM, SPO, NNE} {
		r := mustNew(k, g, Options{})
		s, err := ComputeStats(r, StatsOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		var pairs, comp int64
		for u := sgraph.NodeID(0); int(u) < 25; u++ {
			for v := sgraph.NodeID(0); int(v) < 25; v++ {
				if u == v {
					continue
				}
				pairs++
				if mustCompatible(t, r, u, v) {
					comp++
				}
			}
		}
		if s.Pairs != pairs || s.CompatiblePairs != comp {
			t.Fatalf("%v: stats %d/%d vs point queries %d/%d", k, s.CompatiblePairs, s.Pairs, comp, pairs)
		}
	}
}

// TestStatsCachedRowsMatchFresh: ComputeStats reads a lazy row from the
// cache when Precompute left it there and computes the others into its
// worker scratch. For every kind on every blockGraphs input it runs,
// a scan over a fully cached relation and over a partly cached one
// (a cache of a third of the rows) must equal the scan of a fresh
// relation, skill matrix included.
func TestStatsCachedRowsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	for _, bg := range blockGraphs(rng) {
		n := bg.g.NumNodes()
		u := skills.GenerateUniverse(6)
		a := skills.NewAssignment(u, n)
		for v := 0; v < n; v++ {
			a.MustAdd(sgraph.NodeID(v), skills.SkillID(rng.Intn(6)))
		}
		for _, k := range Kinds() {
			if !bg.runs(k) {
				continue
			}
			fresh, err := ComputeStats(mustNew(k, bg.g, blockOpts), StatsOptions{Workers: 2, Assign: a})
			if err != nil {
				t.Fatalf("%s %v: fresh stats: %v", bg.name, k, err)
			}
			for _, cacheCap := range []int{n + 1, n/3 + 1} {
				opts := blockOpts
				opts.CacheCap = cacheCap
				rel := mustNew(k, bg.g, opts)
				if err := Precompute(rel, 2); err != nil {
					t.Fatalf("%s %v: Precompute: %v", bg.name, k, err)
				}
				if got := len(rel.(*lazyRelation).rows); got != min(cacheCap, n) {
					t.Fatalf("%s %v cap %d: %d rows cached", bg.name, k, cacheCap, got)
				}
				cached, err := ComputeStats(rel, StatsOptions{Workers: 2, Assign: a})
				if err != nil {
					t.Fatalf("%s %v cap %d: cached stats: %v", bg.name, k, cacheCap, err)
				}
				if cached.Pairs != fresh.Pairs || cached.CompatiblePairs != fresh.CompatiblePairs ||
					cached.DistSum != fresh.DistSum || cached.DistCount != fresh.DistCount ||
					cached.SourcesScanned != fresh.SourcesScanned {
					t.Fatalf("%s %v cap %d: cached stats %+v, fresh %+v", bg.name, k, cacheCap, cached, fresh)
				}
				if !slices.Equal(cached.Skills.bits, fresh.Skills.bits) {
					t.Fatalf("%s %v cap %d: cached skill matrix differs from fresh", bg.name, k, cacheCap)
				}
			}
		}
	}
}
