package skills

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sgraph"
)

// reachReference is the BFS reference of ReachIndex.Within: the skills
// held by the nodes at most r unsigned hops from u.
func reachReference(g *sgraph.Graph, a *Assignment, u sgraph.NodeID, r int) []uint64 {
	want := make([]uint64, (a.Universe().Len()+63)/64)
	hops := map[sgraph.NodeID]int{u: 0}
	queue := []sgraph.NodeID{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if int(x) < a.NumUsers() {
			for _, s := range a.UserSkills(x) {
				want[s>>6] |= 1 << uint(s&63)
			}
		}
		if hops[x] == r {
			continue
		}
		for _, v := range g.NeighborIDs(x) {
			if _, seen := hops[v]; !seen {
				hops[v] = hops[x] + 1
				queue = append(queue, v)
			}
		}
	}
	return want
}

// checkReach compares every node's radius-1 and radius-2 sets of
// a.Reach(g) with the BFS reference.
func checkReach(t *testing.T, label string, g *sgraph.Graph, a *Assignment) *ReachIndex {
	t.Helper()
	ri := a.Reach(g)
	if ri.g != g {
		t.Fatalf("%s: index built for another graph", label)
	}
	for u := sgraph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for r := 1; r <= 2; r++ {
			got, want := ri.Within(u, r), reachReference(g, a, u, r)
			if len(got) != len(want) {
				t.Fatalf("%s: node %d radius %d: %d words, want %d", label, u, r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: node %d radius %d word %d = %#x, BFS %#x", label, u, r, i, got[i], want[i])
				}
			}
		}
	}
	return ri
}

// randomReachGraph draws a sparse signed graph of n nodes, so radius 2
// differs from the whole graph, with a few isolated nodes.
func randomReachGraph(rng *rand.Rand, n, m int) *sgraph.Graph {
	b := sgraph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := sgraph.NodeID(rng.Intn(n)), sgraph.NodeID(rng.Intn(n))
		if u == v || b.HasEdge(u, v) {
			continue
		}
		s := sgraph.Positive
		if rng.Intn(4) == 0 {
			s = sgraph.Negative
		}
		b.AddEdge(u, v, s)
	}
	return b.MustBuild()
}

// TestReachIndexMatchesBFS: at radii 1 and 2, every node's reach set
// equals the BFS reference, on graphs with more nodes than the
// assignment has users (those nodes hold no skills, but their
// neighbours' skills count) and over a 130-skill universe whose sets
// span three words. Add must retire the cached index so the next
// request rebuilds it with the new skill, and a mutated snapshot of
// the graph gets its own index.
func TestReachIndexMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(2501))
	for trial := 0; trial < 4; trial++ {
		n := 40 + rng.Intn(40)
		users := n - 1 - rng.Intn(8)
		g := randomReachGraph(rng, n, n+rng.Intn(n))
		a := NewAssignment(GenerateUniverse(130), users)
		for i := 0; i < 3*users; i++ {
			a.MustAdd(sgraph.NodeID(rng.Intn(users)), SkillID(rng.Intn(130)))
		}
		first := checkReach(t, "initial", g, a)
		if a.Reach(g) != first {
			t.Fatal("a second request rebuilt the index")
		}

		u, s := sgraph.NodeID(rng.Intn(users)), SkillID(129)
		for a.Has(u, s) {
			u = sgraph.NodeID(rng.Intn(users))
		}
		a.MustAdd(u, s)
		added := checkReach(t, "after Add", g, a)
		if added == first {
			t.Fatal("Add left the stale index published")
		}

		dyn := sgraph.NewDynamic(g)
		var next *sgraph.Graph
		for next == nil {
			x, y := sgraph.NodeID(rng.Intn(n)), sgraph.NodeID(rng.Intn(n))
			if x == y || g.HasEdge(x, y) {
				continue
			}
			var err error
			if next, _, err = dyn.Apply(sgraph.Mutation{Op: sgraph.MutAdd, U: x, V: y, Sign: sgraph.Positive}); err != nil {
				t.Fatal(err)
			}
		}
		if mutated := checkReach(t, "mutated snapshot", next, a); mutated == added {
			t.Fatal("the mutated snapshot reused the old graph's index")
		}
		checkReach(t, "old snapshot again", g, a)
	}
}

// TestReachIndexConcurrentFirstBuild: concurrent first requests for
// one graph (run under -race in CI) must all receive the one published
// index, whether the slot was empty or held another graph's index.
func TestReachIndexConcurrentFirstBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2502))
	g := randomReachGraph(rng, 300, 900)
	other := randomReachGraph(rng, 300, 900)
	a := NewAssignment(GenerateUniverse(70), 300)
	for i := 0; i < 900; i++ {
		a.MustAdd(sgraph.NodeID(rng.Intn(300)), SkillID(rng.Intn(70)))
	}
	for _, prior := range []*sgraph.Graph{nil, other} {
		a.reach.Store(nil)
		if prior != nil {
			a.Reach(prior)
		}
		const workers = 8
		got := make([]*ReachIndex, workers)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[i] = a.Reach(g)
			}()
		}
		start.Done()
		done.Wait()
		for i, ri := range got {
			if ri != got[0] {
				t.Fatalf("prior %v: goroutine %d got a different index than goroutine 0", prior != nil, i)
			}
		}
		if a.Reach(g) != got[0] {
			t.Fatalf("prior %v: the returned index is not the published one", prior != nil)
		}
	}
}
