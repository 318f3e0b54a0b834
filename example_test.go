package signedteams_test

import (
	"context"
	"fmt"
	"math/rand"

	signedteams "repro"
)

// Example builds a small signed network and checks compatibility
// under two relations of different strictness.
func Example() {
	g := signedteams.MustFromEdges(4, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Positive},
		{U: 0, V: 2, Sign: signedteams.Negative}, // 0 and 2 are foes
		{U: 2, V: 3, Sign: signedteams.Positive},
	})
	spo, err := signedteams.NewRelation(signedteams.SPO, g, signedteams.RelationOptions{})
	if err != nil {
		panic(err)
	}
	nne, err := signedteams.NewRelation(signedteams.NNE, g, signedteams.RelationOptions{})
	if err != nil {
		panic(err)
	}

	foes, _ := spo.Compatible(0, 2)
	distant, _ := spo.Compatible(0, 3) // shortest path 0-2-3 is negative, 0-1-2-3 longer
	relaxed, _ := nne.Compatible(0, 3) // no direct negative edge

	fmt.Println(foes, distant, relaxed)
	// Output: false false true
}

// ExampleFormTeam covers a two-skill task with a compatible team.
func ExampleFormTeam() {
	g := signedteams.MustFromEdges(4, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Positive},
		{U: 0, V: 3, Sign: signedteams.Negative},
	})
	univ, _ := signedteams.NewUniverse([]string{"go", "sql"})
	assign := signedteams.NewAssignment(univ, 4)
	assign.MustAdd(0, 0) // user 0: go
	assign.MustAdd(2, 1) // user 2: sql
	assign.MustAdd(3, 1) // user 3: sql — but a foe of user 0

	rel, err := signedteams.NewRelation(signedteams.SPO, g, signedteams.RelationOptions{})
	if err != nil {
		panic(err)
	}
	team, _ := signedteams.FormTeam(rel, assign, signedteams.NewTask(0, 1), signedteams.FormOptions{
		Skill: signedteams.LeastCompatibleFirst,
		User:  signedteams.MinDistance,
	})
	fmt.Println(team.Members, team.Cost)
	// Output: [0 2] 2
}

// ExampleTeamSolver serves repeated team queries from one solver: the
// plan for a task is compiled once (the cold solve) and then solved
// warm on reused buffers (allocation-free on packed engines when the
// solver is single-worker), and a batch of tasks runs across the
// worker pool — with results identical to per-call FormTeam. For
// cross-request plan reuse without holding plans yourself, see
// ExampleTeamSolver_planCache.
func ExampleTeamSolver() {
	g := signedteams.MustFromEdges(5, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Positive},
		{U: 2, V: 3, Sign: signedteams.Positive},
		{U: 0, V: 4, Sign: signedteams.Negative},
	})
	univ, _ := signedteams.NewUniverse([]string{"go", "sql", "ml"})
	assign := signedteams.NewAssignment(univ, 5)
	assign.MustAdd(0, 0) // go
	assign.MustAdd(2, 1) // sql
	assign.MustAdd(3, 2) // ml
	assign.MustAdd(4, 1) // sql — but a foe of user 0

	rel, err := signedteams.NewShardedRelation(signedteams.SPO, g, signedteams.ShardedRelationOptions{ShardRows: g.NumNodes()})
	if err != nil {
		panic(err)
	}
	solver := signedteams.NewTeamSolver(rel, assign, signedteams.TeamSolverOptions{Workers: 2})

	// Compile the plan once, then serve it repeatedly without
	// re-ranking skills or re-deriving the candidate pool.
	plan, err := solver.Plan(signedteams.NewTask(0, 1), signedteams.FormOptions{
		Skill: signedteams.LeastCompatibleFirst,
		User:  signedteams.MinDistance,
	})
	if err != nil {
		panic(err)
	}
	var warm signedteams.Team
	solves := 0
	for i := 0; i < 3; i++ { // warm solves reuse the same buffers
		if err := plan.FormIntoContext(context.Background(), &warm); err != nil {
			panic(err)
		}
		solves++
	}
	fmt.Printf("%v cost %d — 1 cold compile, %d warm solves\n", warm.Members, warm.Cost, solves)

	// Batches amortise the solver across many tasks; a nil entry means
	// no compatible team exists for that task.
	teams, err := solver.FormBatch([]signedteams.Task{
		signedteams.NewTask(0, 1),
		signedteams.NewTask(0, 1, 2),
	}, signedteams.FormOptions{})
	if err != nil {
		panic(err)
	}
	for _, tm := range teams {
		fmt.Println(tm.Members, tm.Cost)
	}
	// Output:
	// [0 2] cost 2 — 1 cold compile, 3 warm solves
	// [0 2] 2
	// [0 3 2] 3
}

// ExampleTeamSolver_planCache serves a repeated task from the
// solver's plan cache: the first request compiles and caches the plan
// (a miss), every later request — including one spelling the task in
// a different order, with duplicates — reuses it (hits), skipping
// policy ranking and pool-degree computation entirely. On packed
// engines a warm cache-hit FormIntoContext allocates nothing.
func ExampleTeamSolver_planCache() {
	g := signedteams.MustFromEdges(5, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Positive},
		{U: 2, V: 3, Sign: signedteams.Positive},
		{U: 0, V: 4, Sign: signedteams.Negative},
	})
	univ, _ := signedteams.NewUniverse([]string{"go", "sql", "ml"})
	assign := signedteams.NewAssignment(univ, 5)
	assign.MustAdd(0, 0) // go
	assign.MustAdd(2, 1) // sql
	assign.MustAdd(3, 2) // ml
	assign.MustAdd(4, 1) // sql — but a foe of user 0

	rel, err := signedteams.NewShardedRelation(signedteams.SPO, g, signedteams.ShardedRelationOptions{ShardRows: g.NumNodes()})
	if err != nil {
		panic(err)
	}
	solver := signedteams.NewTeamSolver(rel, assign, signedteams.TeamSolverOptions{
		Workers:   1,
		PlanCache: 16, // keep up to 16 compiled plans across requests
	})
	opts := signedteams.FormOptions{
		Skill: signedteams.LeastCompatibleFirst,
		User:  signedteams.MinDistance,
	}
	var tm signedteams.Team
	for i := 0; i < 3; i++ {
		if err := solver.FormIntoContext(context.Background(), signedteams.NewTask(0, 1), opts, &tm); err != nil {
			panic(err)
		}
	}
	// A scrambled, duplicated spelling keys to the same canonical task.
	if err := solver.FormIntoContext(context.Background(), signedteams.Task{1, 0, 1}, opts, &tm); err != nil {
		panic(err)
	}
	st := solver.PlanCacheStats()
	fmt.Println(tm.Members, tm.Cost)
	fmt.Printf("%d hits / %d misses, %d plan cached\n", st.Hits, st.Misses, st.Size)
	// Output:
	// [0 2] 2
	// 3 hits / 1 misses, 1 plan cached
}

// ExampleNewShardedRelation_matrix precomputes the packed all-pairs
// engine in its matrix configuration — one resident shard holding every row: the
// same answers as the lazy relation, served from bitset rows.
func ExampleNewShardedRelation_matrix() {
	g := signedteams.MustFromEdges(5, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Positive},
		{U: 2, V: 3, Sign: signedteams.Positive},
		{U: 0, V: 4, Sign: signedteams.Negative},
	})
	rel, err := signedteams.NewShardedRelation(signedteams.SPO, g, signedteams.ShardedRelationOptions{ShardRows: g.NumNodes()})
	if err != nil {
		panic(err)
	}
	chain, _ := rel.Compatible(0, 3) // all-positive path 0-1-2-3
	foes, _ := rel.Compatible(0, 4)  // direct negative edge
	d, ok, _ := rel.Distance(0, 3)
	fmt.Println(chain, foes, d, ok)
	// Output: true false 3 true
}

// ExampleNewShardedRelation builds the packed engine in row shards
// with a residency bound of two, so one of the three shards always
// lives in the spill file and is read back on demand.
func ExampleNewShardedRelation() {
	g := signedteams.MustFromEdges(6, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Positive},
		{U: 2, V: 3, Sign: signedteams.Positive},
		{U: 3, V: 4, Sign: signedteams.Positive},
		{U: 0, V: 5, Sign: signedteams.Negative},
	})
	rel, err := signedteams.NewShardedRelation(signedteams.SPO, g, signedteams.ShardedRelationOptions{
		ShardRows:         2, // 6 nodes → 3 shards
		MaxResidentShards: 2,
	})
	if err != nil {
		panic(err)
	}
	defer rel.Close()

	chain, _ := rel.Compatible(0, 4) // all-positive path across shards
	foes, _ := rel.Compatible(0, 5)  // direct negative edge
	fmt.Println(chain, foes)
	fmt.Println(rel.NumShards(), rel.ResidentShards() <= 2, rel.SpillLoads() > 0)
	// Output:
	// true false
	// 3 true true
}

// ExampleIsBalanced demonstrates Harary's balance test.
func ExampleIsBalanced() {
	// "The enemy of my enemy is my friend": two negative edges and a
	// positive closing edge form a balanced triangle.
	balanced := signedteams.MustFromEdges(3, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Negative},
		{U: 1, V: 2, Sign: signedteams.Negative},
		{U: 0, V: 2, Sign: signedteams.Positive},
	})
	// Two friends with a common enemy... who are also enemies: odd
	// number of negative edges, unbalanced.
	unbalanced := signedteams.MustFromEdges(3, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Positive},
		{U: 0, V: 2, Sign: signedteams.Negative},
	})
	fmt.Println(signedteams.IsBalanced(balanced), signedteams.IsBalanced(unbalanced))
	// Output: true false
}

// ExampleCountTriangles censuses signed triangles.
func ExampleCountTriangles() {
	g := signedteams.MustFromEdges(3, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Negative},
		{U: 1, V: 2, Sign: signedteams.Negative},
		{U: 0, V: 2, Sign: signedteams.Positive},
	})
	census := signedteams.CountTriangles(g)
	fmt.Println(census.PNN, census.BalancedFraction())
	// Output: 1 1
}

// ExampleRarestFirstUnsigned shows why sign-oblivious team formation
// goes wrong: the closest cover contains a feud.
func ExampleRarestFirstUnsigned() {
	g := signedteams.MustFromEdges(3, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Negative}, // close, but foes
		{U: 0, V: 2, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Positive},
	})
	univ, _ := signedteams.NewUniverse([]string{"a", "b"})
	assign := signedteams.NewAssignment(univ, 3)
	assign.MustAdd(0, 0)
	assign.MustAdd(1, 1)

	team, _ := signedteams.RarestFirstUnsigned(g.IgnoreSigns(), assign, signedteams.NewTask(0, 1))
	rel, err := signedteams.NewRelation(signedteams.NNE, g, signedteams.RelationOptions{})
	if err != nil {
		panic(err)
	}
	ok, _ := signedteams.TeamCompatible(rel, team.Members)
	fmt.Println(team.Members, ok)
	// Output: [0 1] false
}

// ExampleGenerateZipfSkills synthesises a Zipf skill assignment, as
// the paper does for the Wikipedia dataset.
func ExampleGenerateZipfSkills() {
	rng := rand.New(rand.NewSource(1))
	assign, _ := signedteams.GenerateZipfSkills(rng, 100, signedteams.ZipfConfig{
		NumSkills:         20,
		MeanSkillsPerUser: 3,
	})
	fmt.Println(assign.NumUsers(), assign.Universe().Len() == 20, assign.TotalAssignments() > 0)
	// Output: 100 true true
}
