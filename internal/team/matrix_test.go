package team

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// TestFormPackedMatchesLazy: the word-parallel packed fast paths in
// the pickers and in CostWith must produce exactly the teams the lazy
// engine produces, for every deterministic policy combination and
// relation kind, on random graphs with random skill assignments —
// both for the monolithic matrix and for the sharded engine serving
// most rows across the spill boundary.
func TestFormPackedMatchesLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		n := 12 + rng.Intn(20)
		g := randomTeamGraph(rng, n, 4*n, 0.25)
		assign := randomAssignment(t, rng, n, 6)
		task, err := skills.RandomTask(rng, assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []compat.Kind{compat.SPA, compat.SPM, compat.SPO, compat.SBPH, compat.NNE} {
			lazy := compat.MustNew(k, g, compat.Options{})
			sharded := compat.MustNewSharded(k, g, compat.ShardedOptions{
				ShardRows:         3,
				MaxResidentShards: 2,
			})
			packed := map[string]compat.Relation{
				"matrix":  mustMatrix(k, g),
				"sharded": sharded,
			}
			for _, sp := range []SkillPolicy{RarestFirst, LeastCompatibleFirst} {
				for _, up := range []UserPolicy{MinDistance, MostCompatible} {
					for _, ck := range []CostKind{Diameter, SumDistance} {
						opts := Options{Skill: sp, User: up, Cost: ck}
						want, wantErr := form(lazy, assign, task, opts)
						for engine, rel := range packed {
							got, gotErr := form(rel, assign, task, opts)
							if (wantErr == nil) != (gotErr == nil) {
								t.Fatalf("trial %d %v %v/%v/%v: lazy err=%v %s err=%v",
									trial, k, sp, up, ck, wantErr, engine, gotErr)
							}
							if wantErr != nil {
								if !errors.Is(wantErr, ErrNoTeam) || !errors.Is(gotErr, ErrNoTeam) {
									t.Fatalf("trial %d %v: unexpected errors %v / %v", trial, k, wantErr, gotErr)
								}
								continue
							}
							if want.Cost != got.Cost || len(want.Members) != len(got.Members) {
								t.Fatalf("trial %d %v %v/%v/%v: lazy team %v cost %d, %s team %v cost %d",
									trial, k, sp, up, ck, want.Members, want.Cost, engine, got.Members, got.Cost)
							}
							for i := range want.Members {
								if want.Members[i] != got.Members[i] {
									t.Fatalf("trial %d %v %v/%v/%v: members %v vs %s %v",
										trial, k, sp, up, ck, want.Members, engine, got.Members)
								}
							}
						}
					}
				}
			}
			sharded.Close()
		}
	}
}

// TestFormOnOpenedMatrix: team formation runs on an engine opened from
// a saved file and forms the same teams as on the live relation.
func TestFormOnOpenedMatrix(t *testing.T) {
	d, err := datasets.EpinionsSim(7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	live := compat.MustNew(compat.SPO, d.Graph, compat.Options{CacheCap: d.Graph.NumNodes() + 1})
	path := filepath.Join(t.TempDir(), "spo.stpk")
	if err := mustMatrix(compat.SPO, d.Graph).Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := compat.OpenSharded(path, d.Graph)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5; i++ {
		task, err := skills.RandomTask(rng, d.Assign, 4)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Skill: LeastCompatibleFirst, User: MinDistance}
		t1, err1 := form(live, d.Assign, task, opts)
		t2, err2 := form(opened, d.Assign, task, opts)
		if errors.Is(err1, ErrNoTeam) != errors.Is(err2, ErrNoTeam) {
			t.Fatalf("task %d: feasibility differs: %v vs %v", i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if t1.Cost != t2.Cost || len(t1.Members) != len(t2.Members) {
			t.Fatalf("task %d: teams differ: %+v vs %+v", i, t1, t2)
		}
		for j := range t1.Members {
			if t1.Members[j] != t2.Members[j] {
				t.Fatalf("task %d: members differ: %v vs %v", i, t1.Members, t2.Members)
			}
		}
	}
}

func randomTeamGraph(rng *rand.Rand, n, m int, negFrac float64) *sgraph.Graph {
	b := sgraph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := sgraph.NodeID(rng.Intn(n)), sgraph.NodeID(rng.Intn(n))
		if u == v || b.HasEdge(u, v) {
			continue
		}
		s := sgraph.Positive
		if rng.Float64() < negFrac {
			s = sgraph.Negative
		}
		b.AddEdge(u, v, s)
	}
	return b.MustBuild()
}

func randomAssignment(t testing.TB, rng *rand.Rand, n, numSkills int) *skills.Assignment {
	t.Helper()
	names := make([]string, numSkills)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	u, err := skills.NewUniverse(names)
	if err != nil {
		t.Fatal(err)
	}
	a := skills.NewAssignment(u, n)
	for v := 0; v < n; v++ {
		for s := 0; s < numSkills; s++ {
			if rng.Float64() < 0.3 {
				a.MustAdd(sgraph.NodeID(v), skills.SkillID(s))
			}
		}
	}
	return a
}

// mustMatrix builds the matrix configuration of the packed engine: one
// shard holding every row, all resident.
func mustMatrix(k compat.Kind, g *sgraph.Graph) *compat.ShardedMatrix {
	return compat.MustNewSharded(k, g, compat.ShardedOptions{ShardRows: g.NumNodes()})
}
