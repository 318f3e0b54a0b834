// Config, dataset loading and the relation-engine selection shared by
// every experiment. Package documentation lives in doc.go.

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/cliflags"
	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// Config parameterises all experiments.
type Config struct {
	// Seed drives every random choice (datasets, tasks, RANDOM).
	Seed int64
	// Scale rescales the Chung–Lu datasets; 0 keeps their defaults
	// (Epinions 0.1, Wikipedia 0.2). Slashdot is always full size.
	Scale float64
	// Tasks is the number of random tasks per experiment point
	// (paper: 50).
	Tasks int
	// TaskSize is the task cardinality for Table 3 and Figures
	// 2(a)/(b) (paper: 5).
	TaskSize int
	// TaskSizes is the sweep for Figures 2(c)/(d)
	// (paper: up to 20; default 2,5,10,15,20).
	TaskSizes []int
	// SampleSources, when > 0, estimates Table 2 from that many
	// random source nodes instead of all of them.
	SampleSources int
	// MaxSeeds caps Algorithm 2's outer loop (0 = all holders).
	MaxSeeds int
	// Workers bounds the parallel solves, relation scans and lazy-row
	// precompute (0 = GOMAXPROCS). A packed engine's build is not
	// bounded by it: like every binary's, it follows GOMAXPROCS, and
	// its rows are the same at any worker count.
	Workers int
	// Dataset selects the network for the team formation experiments
	// (Table 3, Figures 2(a–d), the policy grid). Default "epinions",
	// as in the paper; the paper notes results are similar on the
	// other networks, which this knob lets the harness verify.
	Dataset string
	// Engine selects the relation backend through the shared flag
	// group, built by cliflags.Engine.Build: "lazy" (the zero value —
	// bounded row cache, rows computed on demand), "matrix" (packed
	// all-pairs precompute in one resident shard; every row is
	// materialised up front, so combine with moderate scales, and note
	// that SampleSources no longer saves row computations) or
	// "sharded" (packed row shards with bounded residency and cold
	// shards spilled to disk; a literal group reads the spill back
	// through ReadAt unless MmapSpill is set, as the flag's default
	// does). Exact SBP always stays on the lazy engine, its paths
	// capped at diameter + 2 (cliflags.RelationOptions).
	Engine cliflags.Engine
}

// WithDefaults fills the zero fields with the paper's parameters.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tasks == 0 {
		c.Tasks = 50
	}
	if c.TaskSize == 0 {
		c.TaskSize = 5
	}
	if len(c.TaskSizes) == 0 {
		c.TaskSizes = []int{2, 5, 10, 15, 20}
	}
	if c.Dataset == "" {
		c.Dataset = "epinions"
	}
	return c
}

// TeamRelations are the relations the team formation experiments use,
// matching the paper's Figure 2 x-axes (DPE is excluded as degenerate
// — it asks for positive cliques — and exact SBP is intractable on
// Epinions-scale graphs).
func TeamRelations() []compat.Kind {
	return []compat.Kind{compat.SPA, compat.SPM, compat.SPO, compat.SBPH, compat.NNE}
}

// loadDataset builds a dataset stand-in from the config.
func loadDataset(cfg Config, name string) (*datasets.Dataset, error) {
	return datasets.Load(name, cfg.Seed, cfg.Scale)
}

// sampleSources picks cfg.SampleSources distinct nodes, or nil (all)
// when sampling is off.
func sampleSources(cfg Config, rng *rand.Rand, n int) []sgraph.NodeID {
	if cfg.SampleSources <= 0 || cfg.SampleSources >= n {
		return nil
	}
	perm := rng.Perm(n)
	out := make([]sgraph.NodeID, cfg.SampleSources)
	for i := range out {
		out[i] = sgraph.NodeID(perm[i])
	}
	return out
}

// sampleTasks draws count random tasks of size k, all distinct draws
// from the dataset's held skills.
func sampleTasks(rng *rand.Rand, assign *skills.Assignment, count, k int) ([]skills.Task, error) {
	tasks := make([]skills.Task, 0, count)
	for i := 0; i < count; i++ {
		t, err := skills.RandomTask(rng, assign, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: sampling task %d of size %d: %w", i, k, err)
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}
