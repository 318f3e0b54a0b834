// Command tfsn answers team formation queries on a signed network:
// given a dataset (built-in stand-in or snapshot files), a
// compatibility relation and a task, it prints the formed team, its
// members' skills and the team diameter.
//
// The serving-oriented knobs mirror the experiment harness: -engine
// selects the relation backend (lazy row cache, packed matrix, or the
// sharded spill-capable matrix), -parallel bounds the solver's worker
// pool, -batch switches to batch mode — sample many random tasks and
// solve them all through one reusable solver, reporting solved
// fraction, average cost and throughput — and -plan-cache bounds the
// solver's compiled-plan LRU, whose hit/miss/eviction counters the
// batch report prints (repeated tasks are served without recompiling
// their plans). -mutate applies a comma-separated list of edge
// mutations (op:u:v[:sign], e.g. flip:1:2,add:3:4:-) after the engine
// is built and before solving — a what-if probe of how a team changes
// when relationships do. Constrained formation rides on
// -include/-exclude/-max-team (comma-separated user ids and a size
// cap, applied to every task in batch mode too); -diverse-lambda
// switches -topk to the overlap-penalised diverse selection
// (cost + lambda×Jaccard against the already-selected teams).
//
// Usage:
//
//	tfsn -dataset epinions -relation SPO -k 5
//	tfsn -dataset epinions -relation SPO -k 5 -include 17,42 -exclude 9 -max-team 6
//	tfsn -dataset epinions -relation SPO -k 5 -topk 3 -diverse-lambda 2.5
//	tfsn -dataset slashdot -relation SBPH -task "skill-0002,skill-0005"
//	tfsn -edges g.edges -skills g.skills -relation NNE -k 3
//	tfsn -dataset epinions -relation SPM -engine matrix -k 5 \
//	    -batch 200 -parallel 8 -plan-cache 256
//	tfsn -dataset epinions -relation SPO -k 5 -mutate flip:17:42
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/skills"
	"repro/internal/team"
)

// config collects the parsed flags.
type config struct {
	dataset, edgesPath, skillsTSV string
	seed                          int64
	scale                         float64
	relation, taskSpec            string
	k                             int
	skillPol, userPol, costKind   string
	topk, maxSeeds                int

	eng       cliflags.Engine
	srv       cliflags.Serve // only the deadline is registered here
	cons      cliflags.ConstraintSpec
	diverseL  float64
	parallel  int
	batch     int
	planCache int
	mutate    string
}

// validateFlags rejects flag combinations that would silently do
// nothing (or contradict each other). set holds the names of flags
// explicitly present on the command line. The sharded-only flag
// vocabulary is shared with cmd/experiments via internal/cliflags.
func validateFlags(cfg config, set map[string]bool) error {
	if err := cfg.eng.Validate(set); err != nil {
		return err
	}
	if err := cfg.srv.ValidateDeadline(); err != nil {
		return err
	}
	if set["task"] && set["k"] {
		return errors.New("-task and -k are mutually exclusive: a named task has its size")
	}
	if cfg.batch > 0 {
		if cfg.taskSpec != "" {
			return errors.New("-batch samples random tasks and cannot be combined with -task; pass -k instead")
		}
		if cfg.k <= 0 {
			return errors.New("-batch needs -k (the task size to sample)")
		}
		if set["topk"] {
			return errors.New("-topk only applies to single-task mode, not -batch")
		}
		if set["diverse-lambda"] {
			return errors.New("-diverse-lambda only applies to single-task mode, not -batch")
		}
	}
	// Constraint grammar and static contradictions (a user both
	// included and excluded, a cap below the include count) are usage
	// errors; range checks against the dataset happen at solve time.
	cons, err := cfg.cons.Parse()
	if err != nil {
		return err
	}
	if err := cons.Validate(0); err != nil {
		return err
	}
	if cfg.diverseL < 0 || math.IsNaN(cfg.diverseL) || math.IsInf(cfg.diverseL, 0) {
		return fmt.Errorf("-diverse-lambda must be a finite number >= 0, got %v", cfg.diverseL)
	}
	return nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.dataset, "dataset", "", "built-in dataset: slashdot, epinions or wikipedia")
	flag.StringVar(&cfg.edgesPath, "edges", "", "signed edge list file (with -skills, instead of -dataset)")
	flag.StringVar(&cfg.skillsTSV, "skills", "", "skill assignment TSV file")
	flag.Int64Var(&cfg.seed, "seed", 1, "dataset / task sampling seed")
	flag.Float64Var(&cfg.scale, "scale", 0, "built-in dataset scale (0 = default)")
	flag.StringVar(&cfg.relation, "relation", "SPO", "compatibility relation: DPE, SPA, SPM, SPO, SBPH, SBP, NNE")
	flag.StringVar(&cfg.taskSpec, "task", "", "comma-separated skill names for the task")
	flag.IntVar(&cfg.k, "k", 0, "instead of -task: sample a random task of k skills")
	flag.StringVar(&cfg.skillPol, "skill-policy", "leastcompatible", "skill policy: rarest or leastcompatible")
	flag.StringVar(&cfg.userPol, "user-policy", "mindistance", "user policy: mindistance, mostcompatible or random")
	flag.StringVar(&cfg.costKind, "cost", "diameter", "cost objective: diameter or sumdistance")
	flag.IntVar(&cfg.topk, "topk", 1, "return up to this many distinct teams")
	flag.IntVar(&cfg.maxSeeds, "maxseeds", 0, "cap Algorithm 2 seeds (0 = all)")
	cfg.eng.Register(flag.CommandLine)
	cfg.srv.RegisterDeadline(flag.CommandLine)
	cfg.cons.Register(flag.CommandLine)
	flag.Float64Var(&cfg.diverseL, "diverse-lambda", 0, "top-k diversity: penalise member overlap with already-selected teams by lambda×Jaccard (0 = plain top-k)")
	flag.IntVar(&cfg.parallel, "parallel", 0, "solver workers for batch mode and the -topk seed sweep; a single team's seed loop is sequential (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.batch, "batch", 0, "batch mode: sample this many random tasks of -k skills and solve them all")
	flag.IntVar(&cfg.planCache, "plan-cache", 0, "cache up to this many compiled task plans in the solver (0 = no cache); repeated tasks skip plan compilation")
	flag.StringVar(&cfg.mutate, "mutate", "", "comma-separated graph mutations applied after load, before solving (op:u:v[:sign], e.g. flip:1:2,add:3:4:-)")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(cfg, set); err != nil {
		fmt.Fprintln(os.Stderr, "tfsn:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tfsn:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	d, err := loadData(cfg)
	if err != nil {
		return err
	}
	kind, err := compat.ParseKind(cfg.relation)
	if err != nil {
		return err
	}
	relOpts := compat.Options{}
	if cfg.batch > 0 {
		// Batch mode revisits sources across tasks: let the lazy row
		// cache cover the node set instead of thrashing at the default
		// capacity. (The packed engines ignore CacheCap.)
		relOpts.CacheCap = d.Graph.NumNodes() + 1
	}
	rel, engine, err := cfg.eng.Build(kind, d.Graph, relOpts)
	if err != nil {
		return err
	}
	if c, ok := rel.(interface{ Close() error }); ok {
		defer c.Close()
	}
	if cfg.mutate != "" {
		if err := applyMutations(rel, cfg.mutate); err != nil {
			return err
		}
	}
	opts, err := parsePolicies(cfg.skillPol, cfg.userPol, cfg.seed)
	if err != nil {
		return err
	}
	opts.MaxSeeds = cfg.maxSeeds
	opts.Cost, err = cliflags.ParseCost(cfg.costKind)
	if err != nil {
		return err
	}
	// Grammar errors were rejected at exit-2 time (validateFlags); this
	// parse only reconstructs the values.
	if opts.Constraints, err = cfg.cons.Parse(); err != nil {
		return err
	}
	if cfg.topk <= 0 {
		return fmt.Errorf("-topk must be positive, got %d", cfg.topk)
	}
	ctx := context.Background()
	if cfg.srv.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.srv.Deadline)
		defer cancel()
	}

	fmt.Printf("dataset  %s (%d users, %d edges, %d negative)\n",
		d.Name, d.Graph.NumNodes(), d.Graph.NumEdges(), d.Graph.NumNegativeEdges())
	solver := team.NewSolver(rel, d.Assign, team.SolverOptions{
		Workers:   cfg.parallel,
		PlanCache: cfg.planCache,
	})
	if cfg.batch > 0 {
		// Flag-combination errors were rejected up front (validateFlags).
		return runBatch(ctx, cfg, d, rel, solver, kind, engine, opts)
	}

	task, err := resolveTask(d.Assign, cfg.taskSpec, cfg.k, cfg.seed)
	if err != nil {
		return err
	}
	names := make([]string, len(task))
	for i, s := range task {
		names[i] = d.Assign.Universe().Name(s)
	}
	fmt.Printf("task     {%s}\n", strings.Join(names, ", "))
	if !opts.Constraints.IsZero() {
		fmt.Printf("constraints %s\n", opts.Constraints.Fingerprint())
	}
	fmt.Printf("relation %v (engine=%s), policies %v/%v, cost %v\n\n", kind, engine, opts.Skill, opts.User, opts.Cost)

	teams, err := solver.FormTopKDiverseContext(ctx, task, opts, cfg.topk, cfg.diverseL)
	if errors.Is(err, team.ErrInfeasible) {
		fmt.Println("the constraints are infeasible for this task:", err)
		return nil
	}
	if errors.Is(err, team.ErrNoTeam) {
		fmt.Println("no compatible team exists for this task under", kind)
		return nil
	}
	if errors.Is(err, team.ErrDeadlineExceeded) {
		return fmt.Errorf("deadline %v exceeded mid-solve: %w", cfg.srv.Deadline, err)
	}
	if err != nil {
		return err
	}
	for rank, tm := range teams {
		if cfg.topk > 1 {
			fmt.Printf("#%d ", rank+1)
		}
		// Without -topk a seed "succeeds" only by setting a new best
		// team: the bounded seed loop abandons the others early.
		fmt.Printf("team of %d (%v %d; %d/%d seeds succeeded):\n",
			len(tm.Members), opts.Cost, tm.Cost, tm.SeedsSucceeded, tm.SeedsTried)
		for _, m := range tm.Members {
			var covers []string
			for _, s := range d.Assign.UserSkills(m) {
				if task.Contains(s) {
					covers = append(covers, d.Assign.Universe().Name(s))
				}
			}
			fmt.Printf("  user %-6d covers %s\n", m, strings.Join(covers, ", "))
		}
	}
	return nil
}

// applyMutations parses and applies a -mutate spec against the built
// relation, printing the resulting epoch so a scripted run can assert
// on it. Only the mutable engines accept mutations.
func applyMutations(rel compat.Relation, spec string) error {
	muts, err := cliflags.ParseMutations(spec)
	if err != nil {
		return err
	}
	mr, ok := rel.(compat.MutableRelation)
	if !ok {
		return fmt.Errorf("-mutate: engine does not support mutations")
	}
	for _, mut := range muts {
		if _, err := mr.Mutate(mut); err != nil {
			return fmt.Errorf("-mutate: %w", err)
		}
	}
	st := mr.MutationStats()
	fmt.Printf("mutated  %d mutations applied, graph epoch %d, %d shards stale\n",
		st.Mutations, st.Epoch, st.StaleShards)
	return nil
}

// runBatch samples cfg.batch random tasks and solves them through the
// reusable solver, reporting aggregate quality and throughput.
func runBatch(ctx context.Context, cfg config, d *datasets.Dataset, rel compat.Relation, solver *team.Solver, kind compat.Kind, engine string, opts team.Options) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	tasks := make([]skills.Task, cfg.batch)
	for i := range tasks {
		t, err := skills.RandomTask(rng, d.Assign, cfg.k)
		if err != nil {
			return err
		}
		tasks[i] = t
	}
	fmt.Printf("relation %v (engine=%s, kernels=%s), policies %v/%v, cost %v\n",
		kind, engine, compat.KernelsVariant(), opts.Skill, opts.User, opts.Cost)
	fmt.Printf("batch    %d random tasks of %d skills\n\n", cfg.batch, cfg.k)

	start := time.Now()
	teams, err := solver.FormBatchContext(ctx, tasks, opts)
	if errors.Is(err, team.ErrDeadlineExceeded) {
		return fmt.Errorf("deadline %v exceeded mid-batch: %w", cfg.srv.Deadline, err)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	solved, members, costSum := 0, 0, int64(0)
	for _, tm := range teams {
		if tm == nil {
			continue
		}
		solved++
		members += len(tm.Members)
		costSum += int64(tm.Cost)
	}
	fmt.Printf("solved   %d/%d tasks (%.1f%%)\n", solved, len(tasks), 100*float64(solved)/float64(len(tasks)))
	if solved > 0 {
		fmt.Printf("average  %v %.2f, team size %.2f\n",
			opts.Cost, float64(costSum)/float64(solved), float64(members)/float64(solved))
	}
	fmt.Printf("elapsed  %.2fs (%.0f tasks/s)\n", elapsed.Seconds(), float64(len(tasks))/elapsed.Seconds())
	if cfg.planCache > 0 {
		st := solver.PlanCacheStats()
		fmt.Printf("plans    %d cached (cap %d): %d hits / %d misses (%.1f%% hit rate), %d evictions\n",
			st.Size, st.Capacity, st.Hits, st.Misses, 100*st.HitRate(), st.Evictions)
	}
	return nil
}

func loadData(cfg config) (*datasets.Dataset, error) {
	switch {
	case cfg.dataset != "" && cfg.edgesPath != "":
		return nil, errors.New("pass either -dataset or -edges/-skills, not both")
	case cfg.dataset != "":
		return datasets.Load(cfg.dataset, cfg.seed, cfg.scale)
	case cfg.edgesPath != "" && cfg.skillsTSV != "":
		ef, err := os.Open(cfg.edgesPath)
		if err != nil {
			return nil, err
		}
		defer ef.Close()
		g, _, err := sgraph.ReadEdgeList(ef)
		if err != nil {
			return nil, err
		}
		sf, err := os.Open(cfg.skillsTSV)
		if err != nil {
			return nil, err
		}
		defer sf.Close()
		assign, err := skills.ReadTSV(sf, g.NumNodes())
		if err != nil {
			return nil, err
		}
		return &datasets.Dataset{Name: cfg.edgesPath, Graph: g, Assign: assign}, nil
	default:
		return nil, errors.New("pass -dataset, or -edges together with -skills")
	}
}

func resolveTask(assign *skills.Assignment, taskSpec string, k int, seed int64) (skills.Task, error) {
	if taskSpec != "" {
		var ids []skills.SkillID
		for _, name := range strings.Split(taskSpec, ",") {
			s, ok := assign.Universe().Lookup(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("unknown skill %q", name)
			}
			ids = append(ids, s)
		}
		return skills.NewTask(ids...), nil
	}
	if k > 0 {
		return skills.RandomTask(rand.New(rand.NewSource(seed)), assign, k)
	}
	return nil, errors.New("pass -task or -k")
}

func parsePolicies(skillPol, userPol string, seed int64) (team.Options, error) {
	var opts team.Options
	var err error
	if opts.Skill, err = cliflags.ParseSkillPolicy(skillPol); err != nil {
		return opts, err
	}
	if opts.User, err = cliflags.ParseUserPolicy(userPol); err != nil {
		return opts, err
	}
	if opts.User == team.RandomUser {
		opts.Rng = rand.New(rand.NewSource(seed))
	}
	return opts, nil
}
