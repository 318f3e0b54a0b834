package team

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// TestFloorPickMatchesReference is the exactness property of the
// MinDistance pick's floor on the packed engine (pickNearest: the
// common-neighbour pass and the kernel's floor exit). At every state a
// real growth passes through, under a sweep of budgets, the pick must
// return what a brute-force scan of the candidates returns: the
// smallest score below the budget, the smallest id among its holders,
// or none. The solves themselves (Form and top-K) must match the
// full-growth references. It covers Diameter and SumDistance; no
// constraint, MustInclude and MustExclude; the matrix engine and
// sharded ones at shard heights 1, 7, 64 and n; random graphs and a
// 300-node path, whose distances overflow uint8 into int32 rows. It
// fails unless each branch answered at least once: a common neighbour,
// a raised floor that answers none, a kernel exit at the raised floor,
// and a skipped pass on a long adjacency.
func TestFloorPickMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2201))
	type instance struct {
		name string
		kind compat.Kind
		g    *sgraph.Graph
	}
	var instances []instance
	for trial := 0; trial < 3; trial++ {
		n := 30 + rng.Intn(16)
		g := randomTeamGraph(rng, n, 3*n, 0.25)
		instances = append(instances,
			instance{fmt.Sprintf("t%d/SPM", trial), compat.SPM, g},
			instance{fmt.Sprintf("t%d/NNE", trial), compat.NNE, g})
	}
	instances = append(instances, instance{"widepath/SPO", compat.SPO, widePath(rng, 300)})

	var adjacent, raisedNone, raisedExit, skipped, picks int
	for _, in := range instances {
		n := in.g.NumNodes()
		assign := randomAssignment(t, rng, n, 5)
		task, err := skills.RandomTask(rng, assign, 4)
		if err != nil {
			t.Fatal(err)
		}
		consList := []Constraints{
			{},
			{MustInclude: []sgraph.NodeID{sgraph.NodeID(rng.Intn(n))}},
			{MustExclude: assign.Holders(task[rng.Intn(len(task))])[:1]},
		}
		for engine, rel := range constrainedEngines(t, in.kind, in.g) {
			if engine == "lazy" {
				continue // the floored pick runs on the packed engine
			}
			for ci, cons := range consList {
				for _, ck := range []CostKind{Diameter, SumDistance} {
					opts := Options{Skill: RarestFirst, User: MinDistance, Cost: ck, Constraints: cons}
					label := fmt.Sprintf("%s/%s/cons%d/%v", in.name, engine, ci, ck)
					s := NewSolver(rel, assign, SolverOptions{Workers: 1})

					want, wantErr := referenceConstrainedForm(rel, assign, task, opts)
					got, gotErr := formNew(s, task, opts)
					if sameErrClass(t, label, wantErr, gotErr) {
						sameTeam(t, label, want, got)
					}
					wantK, wantKErr := referenceTopKDiverse(rel, assign, task, opts, 3, 0)
					gotK, gotKErr := s.FormTopKContext(context.Background(), task, opts, 3)
					if sameErrClass(t, label+"/topk", wantKErr, gotKErr) {
						if len(gotK) != len(wantK) {
							t.Fatalf("%s/topk: %d teams, the reference %d", label, len(gotK), len(wantK))
						}
						for i := range wantK {
							sameTeam(t, fmt.Sprintf("%s/topk%d", label, i), wantK[i], gotK[i])
						}
					}

					p, err := s.Plan(task, opts)
					if err != nil {
						continue // plan-time infeasible: no pick to check
					}
					sc := s.newScratch()
					for _, seed := range p.seeds {
						p.grow(sc, seed, noBound)
						path := append([]sgraph.NodeID(nil), sc.members...)
						// Replay every prefix of the growth's join order:
						// each is a state the pick sees.
						for k := 1; k <= len(path); k++ {
							sc.members = sc.members[:0]
							sc.rows.Reset()
							sc.covered.Grow(len(p.task))
							sc.nCov = 0
							for _, u := range path[:k] {
								sc.addMember(p, u)
							}
							if sc.nCov == len(p.task) {
								break
							}
							skill := p.nextSkill(sc)
							structural := int32(1)
							if ck == SumDistance {
								structural = int32(k)
							}
							for _, budget := range []int32{1, 2, 3, 4, 5, structural + 1, structural + 2, noBound} {
								v, c, ok, route := p.pickNearest(sc, skill, budget)
								wv, wc, wok := brutePick(t, rel, assign, cons, sc.members, skill, ck, budget)
								if ok != wok || (ok && (v != wv || c != wc)) {
									t.Fatalf("%s seed %d members %v skill %d budget %d: pick (%d,%d,%v) route %d, brute force (%d,%d,%v)",
										label, seed, sc.members, skill, budget, v, c, ok, route, wv, wc, wok)
								}
								picks++
								switch route {
								case routeAdjacent:
									adjacent++
								case routeRaised:
									if budget <= structural+1 {
										raisedNone++
									} else if ok && c == structural+1 {
										raisedExit++
									}
								case routeSkipped:
									skipped++
								}
							}
						}
					}
					sc.rows.Clear()
				}
			}
		}
	}
	t.Logf("%d picks: %d common-neighbour answers, %d raised-floor nones, %d raised-floor kernel exits, %d skipped passes",
		picks, adjacent, raisedNone, raisedExit, skipped)
	if adjacent == 0 || raisedNone == 0 || raisedExit == 0 || skipped == 0 {
		t.Fatal("a branch of the floored pick never answered: the instances do not exercise it")
	}
}

// brutePick is the pick's reference: every holder of skill that is
// compatible with every member and not excluded, priced pair by pair
// through the relation, the smallest score below budget winning, ties
// to the smallest id.
func brutePick(t *testing.T, rel compat.Relation, assign *skills.Assignment, cons Constraints, members []sgraph.NodeID, skill skills.SkillID, ck CostKind, budget int32) (sgraph.NodeID, int32, bool) {
	t.Helper()
	excluded := map[sgraph.NodeID]bool{}
	for _, u := range cons.MustExclude {
		excluded[u] = true
	}
	best, bestScore := sgraph.NodeID(-1), int32(0)
holders:
	for _, v := range assign.Holders(skill) {
		if excluded[v] {
			continue
		}
		score := int32(0)
		for _, u := range members {
			ok, err := rel.Compatible(u, v)
			if err != nil {
				t.Fatal(err)
			}
			d, defined, err := rel.Distance(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || !defined {
				continue holders
			}
			if ck == SumDistance {
				score += d
			} else {
				score = max(score, d)
			}
		}
		if score < budget && (best < 0 || score < bestScore) {
			best, bestScore = v, score
		}
	}
	return best, bestScore, best >= 0
}

// widePath builds a path of n nodes, each edge negative with
// probability 0.2; past 255 nodes its distances need int32 rows.
func widePath(rng *rand.Rand, n int) *sgraph.Graph {
	b := sgraph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		s := sgraph.Positive
		if rng.Intn(5) == 0 {
			s = sgraph.Negative
		}
		b.AddEdge(sgraph.NodeID(i), sgraph.NodeID(i+1), s)
	}
	return b.MustBuild()
}
