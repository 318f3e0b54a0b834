package signedteams

import (
	"context"
	"math/rand"

	"repro/internal/skills"
	"repro/internal/team"
)

// Skill-side types.
type (
	// SkillID identifies a skill within a Universe.
	SkillID = skills.SkillID
	// Universe is an immutable, ordered collection of skill names.
	Universe = skills.Universe
	// Assignment maps users to skill sets, with a skill→holders
	// inverted index.
	Assignment = skills.Assignment
	// Task is the set of skills a job requires.
	Task = skills.Task
	// ZipfConfig controls the synthetic Zipf skill generator the
	// paper uses for Wikipedia.
	ZipfConfig = skills.ZipfConfig
)

// NewUniverse builds a skill universe from distinct names.
func NewUniverse(names []string) (*Universe, error) { return skills.NewUniverse(names) }

// GenerateUniverse returns a universe of n synthetic skill names.
func GenerateUniverse(n int) *Universe { return skills.GenerateUniverse(n) }

// NewAssignment returns an empty user→skills assignment.
func NewAssignment(u *Universe, numUsers int) *Assignment { return skills.NewAssignment(u, numUsers) }

// NewTask canonicalises a list of skill ids into a Task.
func NewTask(ids ...SkillID) Task { return skills.NewTask(ids...) }

// RandomTask samples a task of k distinct skills that have at least
// one holder, as the paper's task generator does.
func RandomTask(rng *rand.Rand, assign *Assignment, k int) (Task, error) {
	return skills.RandomTask(rng, assign, k)
}

// Team formation types.
type (
	// Team is a formed team: members, cost under Options.Cost, seed
	// telemetry.
	Team = team.Team
	// FormOptions selects Algorithm 2's skill and user policies.
	FormOptions = team.Options
	// SkillPolicy picks the next uncovered skill.
	SkillPolicy = team.SkillPolicy
	// UserPolicy picks the compatible holder to add.
	UserPolicy = team.UserPolicy
	// ExactOptions bounds the exhaustive optimal solver.
	ExactOptions = team.ExactOptions
)

// Skill selection policies.
const (
	// RarestFirst satisfies the skill with the fewest holders first.
	RarestFirst = team.RarestFirst
	// LeastCompatibleFirst satisfies the skill with the lowest
	// compatibility degree first (the paper's best policy).
	LeastCompatibleFirst = team.LeastCompatibleFirst
)

// User selection policies.
const (
	// MinDistance adds the candidate closest to the team (LCMD).
	MinDistance = team.MinDistance
	// MostCompatible adds the candidate compatible with the most
	// users in the task's pool (LCMC).
	MostCompatible = team.MostCompatible
	// RandomUser adds a compatible candidate uniformly at random
	// (the RANDOM baseline; requires FormOptions.Rng).
	RandomUser = team.RandomUser
)

// ErrNoTeam reports that no compatible covering team was found; test
// with errors.Is.
var ErrNoTeam = team.ErrNoTeam

// Reusable solver types. A TeamSolver compiles the per-task setup of
// Algorithm 2 (policy ranking, seed list, candidate-pool degrees) into
// a TeamPlan once and reuses per-worker scratch across solves, so
// repeated queries over one relation — the serving workload — skip the
// per-call setup FormTeam pays, batches run across a worker pool, and
// warm plan solves on packed engines are allocation-free at any worker
// count. With TeamSolverOptions.PlanCache set, the
// solver additionally keeps an LRU of compiled plans keyed by the
// canonical task and the options fingerprint, so repeated tasks skip
// plan compilation across requests — warm cache-hit solves through
// TeamSolver.FormIntoContext allocate nothing on packed engines, and
// TeamSolver.PlanCacheStats reports hits, misses and evictions.
type (
	// TeamSolver answers repeated team formation queries over one
	// (relation, assignment) pair; safe for concurrent use.
	TeamSolver = team.Solver
	// TeamSolverOptions configures NewTeamSolver: the worker count and
	// the PlanCache bound for cross-request plan reuse.
	TeamSolverOptions = team.SolverOptions
	// TeamPlan is a compiled task query: build once with
	// TeamSolver.Plan, solve repeatedly with FormIntoContext,
	// FormTopKContext or FormTopKDiverseContext.
	TeamPlan = team.TaskPlan
	// PlanCacheStats is a snapshot of a TeamSolver's plan-cache
	// counters (hits, misses, evictions, size, capacity).
	PlanCacheStats = team.PlanCacheStats
)

// NewTeamSolver builds a reusable team-formation solver over rel and
// assign. Results are identical to FormTeam for every policy
// combination and engine, at every worker count — with or without the
// plan cache.
func NewTeamSolver(rel Relation, assign *Assignment, opts TeamSolverOptions) *TeamSolver {
	return team.NewSolver(rel, assign, opts)
}

// FormTeam runs the paper's Algorithm 2 once: greedy team formation
// under a compatibility relation, on a single-use, single-worker
// solver. It is the facade's one one-shot call; for repeated queries
// against the same relation, or for top-k lists, build a NewTeamSolver
// once instead.
func FormTeam(rel Relation, assign *Assignment, task Task, opts FormOptions) (*Team, error) {
	var tm Team
	s := team.NewSolver(rel, assign, team.SolverOptions{Workers: 1})
	if err := s.FormIntoContext(context.Background(), task, opts, &tm); err != nil {
		return nil, err
	}
	return &tm, nil
}

// ExactTeam finds a minimum-cost compatible team by exhaustive search
// (exponential; small instances only).
func ExactTeam(rel Relation, assign *Assignment, task Task, opts ExactOptions) (*Team, error) {
	return team.Exact(rel, assign, task, opts)
}

// RarestFirstUnsigned is the unsigned team formation baseline of
// Lappas et al. (KDD 2009), used by the paper's Table 3 on the
// IgnoreSigns and DeleteNegative projections of a signed graph.
func RarestFirstUnsigned(g *Graph, assign *Assignment, task Task) (*Team, error) {
	return team.RarestFirstUnsigned(g, assign, task)
}

// TeamCompatible reports whether every member pair is compatible
// under rel.
func TeamCompatible(rel Relation, members []NodeID) (bool, error) {
	return team.Compatible(rel, members)
}

// TeamCost returns the team diameter (max pairwise relation-distance).
func TeamCost(rel Relation, members []NodeID) (int32, error) {
	return team.Cost(rel, members)
}
