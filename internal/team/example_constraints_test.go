package team

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// ExampleSolver_constraints forms a team under membership constraints:
// user 1 is unavailable, the team is capped at four members, and a
// second query shows how a contradictory constraint set (every holder
// of a required skill excluded) surfaces as ErrInfeasible rather than
// a plain search failure.
func ExampleSolver_constraints() {
	g := sgraph.MustFromEdges(5, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Positive},
		{U: 1, V: 2, Sign: sgraph.Positive},
		{U: 2, V: 3, Sign: sgraph.Positive},
		{U: 3, V: 4, Sign: sgraph.Positive},
		{U: 1, V: 4, Sign: sgraph.Negative},
	})
	u, _ := skills.NewUniverse([]string{"go", "sql", "ops"})
	assign := skills.NewAssignment(u, 5)
	assign.MustAdd(0, 0) // go
	assign.MustAdd(1, 1) // sql
	assign.MustAdd(2, 1) // sql
	assign.MustAdd(3, 2) // ops
	assign.MustAdd(4, 2) // ops
	rel := compat.MustNewSharded(compat.NNE, g, compat.ShardedOptions{ShardRows: g.NumNodes()})

	s := NewSolver(rel, assign, SolverOptions{})
	task := skills.NewTask(0, 1, 2)

	var tm Team
	_ = s.FormIntoContext(context.Background(), task, Options{Constraints: Constraints{
		MustExclude: []sgraph.NodeID{1}, // unavailable
		MaxTeamSize: 4,
	}}, &tm)
	fmt.Println(tm.Members, tm.Cost)

	// Excluding both sql holders leaves the task uncoverable: the
	// constraints, not the graph, forbid a team.
	err := s.FormIntoContext(context.Background(), task, Options{Constraints: Constraints{
		MustExclude: []sgraph.NodeID{1, 2},
	}}, &tm)
	fmt.Println(errors.Is(err, ErrInfeasible), errors.Is(err, ErrNoTeam))
	// Output:
	// [0 2 4] 2
	// true true
}
