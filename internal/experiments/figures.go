package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/compat"
	"repro/internal/skills"
	"repro/internal/team"
)

// Algorithm names used in Figure 2(a)/(b), matching the paper: LCMD
// and LCMC select the least compatible skill and differ in the user
// policy; RANDOM picks a compatible user at random; MAX is the
// skill-compatibility upper bound on the solution rate.
const (
	AlgoLCMD   = "LCMD"
	AlgoLCMC   = "LCMC"
	AlgoRandom = "RANDOM"
	AlgoMax    = "MAX"
)

// AlgoResult is one bar of Figures 2(a) and 2(b): for a relation and
// an algorithm, the fraction of tasks solved and the average diameter
// of the solved teams. MAX rows carry only SolvedFrac.
type AlgoResult struct {
	Relation    compat.Kind
	Algorithm   string
	SolvedFrac  float64
	AvgDiameter float64
	Solved      int
	Tasks       int
}

// Figure2ab compares LCMD, LCMC and RANDOM (plus the MAX bound) on
// the Epinions stand-in with tasks of cfg.TaskSize skills, for every
// team relation — the data behind Figures 2(a) and 2(b).
func Figure2ab(cfg Config) ([]AlgoResult, error) {
	cfg = cfg.WithDefaults()
	d, err := loadDataset(cfg, cfg.Dataset)
	if err != nil {
		return nil, err
	}
	taskRng := rand.New(rand.NewSource(cfg.Seed + 303))
	tasks, err := sampleTasks(taskRng, d.Assign, cfg.Tasks, cfg.TaskSize)
	if err != nil {
		return nil, err
	}

	var results []AlgoResult
	for _, k := range TeamRelations() {
		rel, _, err := cfg.Engine.Build(k, d.Graph, compat.Options{})
		if err != nil {
			return nil, err
		}
		if err := compat.Precompute(rel, cfg.Workers); err != nil {
			rel.Close()
			return nil, fmt.Errorf("experiments: precompute %v: %w", k, err)
		}
		// MAX: the skill-pair feasibility bound needs the skill
		// matrix from a full stats pass.
		stats, err := compat.ComputeStats(rel, compat.StatsOptions{Workers: cfg.Workers, Assign: d.Assign})
		if err != nil {
			rel.Close()
			return nil, err
		}
		feasible := 0
		for _, task := range tasks {
			if stats.Skills.TaskFeasible(d.Assign, task) {
				feasible++
			}
		}
		results = append(results, AlgoResult{
			Relation:   k,
			Algorithm:  AlgoMax,
			SolvedFrac: float64(feasible) / float64(len(tasks)),
			Solved:     feasible,
			Tasks:      len(tasks),
		})

		for _, algo := range []string{AlgoLCMD, AlgoLCMC, AlgoRandom} {
			res, err := runAlgorithm(cfg, rel, d.Assign, tasks, algo, cfg.Seed+404)
			if err != nil {
				rel.Close()
				return nil, err
			}
			res.Relation = k
			results = append(results, *res)
		}
		rel.Close()
	}
	return results, nil
}

// runAlgorithm applies one team formation algorithm to every task via
// a reusable solver — the batch runs across cfg.Workers workers with
// per-task results identical to a sequential one-team loop (RandomUser
// serialises so the seeded Rng is consumed in task order) — and
// aggregates solution rate and average diameter.
func runAlgorithm(cfg Config, rel compat.Relation, assign *skills.Assignment, tasks []skills.Task, algo string, randSeed int64) (*AlgoResult, error) {
	opts := team.Options{MaxSeeds: cfg.MaxSeeds}
	switch algo {
	case AlgoLCMD:
		opts.Skill, opts.User = team.LeastCompatibleFirst, team.MinDistance
	case AlgoLCMC:
		opts.Skill, opts.User = team.LeastCompatibleFirst, team.MostCompatible
	case AlgoRandom:
		opts.Skill, opts.User = team.LeastCompatibleFirst, team.RandomUser
		opts.Rng = rand.New(rand.NewSource(randSeed))
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", algo)
	}
	solver := team.NewSolver(rel, assign, team.SolverOptions{Workers: cfg.Workers})
	teams, err := solver.FormBatch(tasks, opts)
	if err != nil {
		return nil, err
	}
	solved, diamSum := 0, int64(0)
	for _, tm := range teams {
		if tm == nil {
			continue
		}
		solved++
		diamSum += int64(tm.Cost)
	}
	res := &AlgoResult{
		Algorithm:  algo,
		SolvedFrac: float64(solved) / float64(len(tasks)),
		Solved:     solved,
		Tasks:      len(tasks),
	}
	if solved > 0 {
		res.AvgDiameter = float64(diamSum) / float64(solved)
	}
	return res, nil
}

// TaskSizeResult is one point of Figures 2(c) and 2(d): LCMD's
// solution rate and average diameter at one task size.
type TaskSizeResult struct {
	Relation    compat.Kind
	TaskSize    int
	SolvedFrac  float64
	AvgDiameter float64
	Solved      int
	Tasks       int
}

// Figure2cd sweeps the task size with the LCMD algorithm on the
// Epinions stand-in — the data behind Figures 2(c) and 2(d).
func Figure2cd(cfg Config) ([]TaskSizeResult, error) {
	cfg = cfg.WithDefaults()
	d, err := loadDataset(cfg, cfg.Dataset)
	if err != nil {
		return nil, err
	}
	var results []TaskSizeResult
	for _, k := range TeamRelations() {
		rel, _, err := cfg.Engine.Build(k, d.Graph, compat.Options{})
		if err != nil {
			return nil, err
		}
		if err := compat.Precompute(rel, cfg.Workers); err != nil {
			rel.Close()
			return nil, err
		}
		for _, size := range cfg.TaskSizes {
			taskRng := rand.New(rand.NewSource(cfg.Seed + 505 + int64(size)))
			tasks, err := sampleTasks(taskRng, d.Assign, cfg.Tasks, size)
			if err != nil {
				rel.Close()
				return nil, err
			}
			res, err := runAlgorithm(cfg, rel, d.Assign, tasks, AlgoLCMD, cfg.Seed+606)
			if err != nil {
				rel.Close()
				return nil, err
			}
			results = append(results, TaskSizeResult{
				Relation:    k,
				TaskSize:    size,
				SolvedFrac:  res.SolvedFrac,
				AvgDiameter: res.AvgDiameter,
				Solved:      res.Solved,
				Tasks:       res.Tasks,
			})
		}
		rel.Close()
	}
	return results, nil
}

// PolicyResult is one cell of the 2×2 policy ablation (the paper's
// four Algorithm 2 instantiations, Section 4).
type PolicyResult struct {
	Skill       team.SkillPolicy
	User        team.UserPolicy
	Relation    compat.Kind
	SolvedFrac  float64
	AvgDiameter float64
}

// PolicyGrid evaluates all four skill×user policy combinations under
// one relation (the paper reports that the least-compatible-skill
// pair wins; this regenerates that comparison). The relation defaults
// to SPM when kind is nil.
func PolicyGrid(cfg Config, kind *compat.Kind) ([]PolicyResult, error) {
	cfg = cfg.WithDefaults()
	k := compat.SPM
	if kind != nil {
		k = *kind
	}
	d, err := loadDataset(cfg, cfg.Dataset)
	if err != nil {
		return nil, err
	}
	rel, _, err := cfg.Engine.Build(k, d.Graph, compat.Options{})
	if err != nil {
		return nil, err
	}
	defer rel.Close()
	if err := compat.Precompute(rel, cfg.Workers); err != nil {
		return nil, err
	}
	taskRng := rand.New(rand.NewSource(cfg.Seed + 707))
	tasks, err := sampleTasks(taskRng, d.Assign, cfg.Tasks, cfg.TaskSize)
	if err != nil {
		return nil, err
	}
	solver := team.NewSolver(rel, d.Assign, team.SolverOptions{Workers: cfg.Workers})
	var results []PolicyResult
	for _, sp := range []team.SkillPolicy{team.RarestFirst, team.LeastCompatibleFirst} {
		for _, up := range []team.UserPolicy{team.MinDistance, team.MostCompatible} {
			teams, err := solver.FormBatch(tasks, team.Options{Skill: sp, User: up, MaxSeeds: cfg.MaxSeeds})
			if err != nil {
				return nil, err
			}
			solved, diamSum := 0, int64(0)
			for _, tm := range teams {
				if tm == nil {
					continue
				}
				solved++
				diamSum += int64(tm.Cost)
			}
			pr := PolicyResult{Skill: sp, User: up, Relation: k,
				SolvedFrac: float64(solved) / float64(len(tasks))}
			if solved > 0 {
				pr.AvgDiameter = float64(diamSum) / float64(solved)
			}
			results = append(results, pr)
		}
	}
	return results, nil
}
