package team

import (
	"context"
	"sort"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// Reference wrappers: the one-shot conveniences the tests call. None of
// them is a production entry point; each is a thin composition of the
// kept Solver calls or of the plan-compile helpers.

// form runs Algorithm 2 once on a single-use, single-worker Solver:
// seed a candidate team with each holder of the first selected skill,
// grow it greedily — always remaining pairwise compatible — until the
// task is covered, and return the cheapest grown team.
func form(rel compat.Relation, assign *skills.Assignment, task skills.Task, opts Options) (*Team, error) {
	return formNew(NewSolver(rel, assign, SolverOptions{Workers: 1}), task, opts)
}

// formTopK is the one-shot top-K: up to k distinct teams in increasing
// cost order from a single-use, single-worker Solver.
func formTopK(rel compat.Relation, assign *skills.Assignment, task skills.Task, opts Options, k int) ([]*Team, error) {
	return NewSolver(rel, assign, SolverOptions{Workers: 1}).FormTopKContext(context.Background(), task, opts, k)
}

// formNew solves task on s into a fresh Team.
func formNew(s *Solver, task skills.Task, opts Options) (*Team, error) {
	var tm Team
	if err := s.FormIntoContext(context.Background(), task, opts, &tm); err != nil {
		return nil, err
	}
	return &tm, nil
}

// skillCompatDegrees is the map-returning form of the plan compile's
// degree pass: cd(s) for every task skill, without memo or buffer.
func skillCompatDegrees(rel compat.Relation, assign *skills.Assignment, task skills.Task) (map[skills.SkillID]int64, error) {
	deg := make(map[skills.SkillID]int64, len(task))
	if len(task) == 0 {
		return deg, nil
	}
	byPos := make([]int64, len(task))
	if err := skillCompatDegreesInto(rel, assign, task, byPos); err != nil {
		return nil, err
	}
	for i, s := range task {
		deg[s] = byPos[i]
	}
	return deg, nil
}

// skillCompatDegreesInto writes cd(task[i]) into deg[i] with no memo
// and no reusable buffer.
func skillCompatDegreesInto(rel compat.Relation, assign *skills.Assignment, task skills.Task, deg []int64) error {
	_, err := skillCompatDegreesScratch(rel, assign, task, deg, nil, nil, 0)
	return err
}

// taskPool returns the distinct holders of any task skill, sorted: the
// MostCompatible candidate pool.
func taskPool(assign *skills.Assignment, task skills.Task) []sgraph.NodeID {
	seen := map[sgraph.NodeID]bool{}
	var pool []sgraph.NodeID
	for _, s := range task {
		for _, u := range assign.Holders(s) {
			if !seen[u] {
				seen[u] = true
				pool = append(pool, u)
			}
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	return pool
}
