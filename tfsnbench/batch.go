package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/skills"
	"repro/internal/team"
)

// batchRun is the outcome of one batch-unique run.
type batchRun struct {
	w      *workload
	cfg    daemonConfig
	engine string
	kind   compat.Kind

	setup, setupCPU, load, build dist // seconds, one per set-up

	chunkMS  dist // FormBatch latency per chunk at the configured workers
	chunkCPU dist // process CPU ms per chunk at the configured workers
	refMS    dist // the same chunk re-solved at Workers=1
	refCPU   dist // process CPU ms of that re-solve
	tasks    int
	busy     time.Duration // time inside the measured FormBatch calls
	rssMB    float64
	rt       runtimeDelta
	stealPct float64 // host CPU stolen by other guests while measuring

	failed, mismatches, checked int
	notes                       []string
	distinct, solved            int
	costSum                     int64

	trace *batchTrace // traced runs only
}

// runBatch runs batch-unique: set-ups, then FormBatch over chunks of
// never-repeated tasks for the measured time, every refEvery-th chunk
// re-solved at Workers=1 as the reference.
func runBatch(w *workload, seed int64, seconds int, traced bool, setups int) (*batchRun, error) {
	cfg, err := parseDaemon(w.tfsndArgs)
	if err != nil {
		return nil, err
	}
	d0, err := datasets.Load(cfg.dataset, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	gen, err := newUniqueTasks(seed, d0.Assign)
	if err != nil {
		return nil, err
	}
	opts := servedOpts()
	probe := gen.next(batchChunk)

	run := &batchRun{w: w, cfg: cfg}
	var st *stack
	var solver *team.Solver
	for i := 0; i < setups; i++ {
		c0, t0 := cpuTime(), time.Now()
		if st, err = buildStack(cfg); err != nil {
			return nil, err
		}
		solver = team.NewSolver(st.rel, st.data.Assign, team.SolverOptions{Workers: cfg.parallel, PlanCache: cfg.planCache})
		if _, err := solver.FormBatch(probe[:1], opts); err != nil {
			st.close()
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		run.setup = append(run.setup, time.Since(t0).Seconds())
		run.setupCPU = append(run.setupCPU, (cpuTime() - c0).Seconds())
		run.load = append(run.load, st.loadDur.Seconds())
		run.build = append(run.build, st.buildDur.Seconds())
		if i < setups-1 {
			st.close()
		}
	}
	defer st.close()
	run.engine, run.kind = st.engine, st.kind
	ref := team.NewSolver(st.rel, st.data.Assign, team.SolverOptions{Workers: 1})

	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSS()
	rt0 := readRuntime()
	steal := startSteal()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	tasks := probe
	for chunk := 0; time.Now().Before(deadline) || run.tasks < qualityN; chunk++ {
		if chunk > 0 {
			tasks = gen.next(batchChunk)
		}
		c0, t0 := cpuTime(), time.Now()
		teams, err := solver.FormBatch(tasks, opts)
		took, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			run.failed += len(tasks)
			run.notes = append(run.notes, err.Error())
			continue
		}
		run.chunkMS = append(run.chunkMS, durMS(took))
		run.chunkCPU = append(run.chunkCPU, durMS(cpu))
		run.busy += took
		for i, tm := range teams {
			if run.tasks+i >= qualityN {
				break
			}
			run.distinct++
			if tm != nil {
				run.solved++
				run.costSum += int64(tm.Cost)
			}
		}
		run.tasks += len(tasks)
		if chunk%refEvery != 0 {
			continue
		}
		c0, t0 = cpuTime(), time.Now()
		want, err := ref.FormBatch(tasks, opts)
		if err != nil {
			return nil, fmt.Errorf("reference batch: %w", err)
		}
		run.refMS = append(run.refMS, durMS(time.Since(t0)))
		run.refCPU = append(run.refCPU, durMS(cpuTime()-c0))
		run.compare(tasks, teams, want)
	}
	run.rt = diffRuntime(rt0, readRuntime())
	run.stealPct = steal.pct()
	run.rssMB = rss.stopMB()
	if traced {
		if run.trace, err = traceBatch(run, st, seed); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// compare checks a chunk's teams against the Workers=1 reference.
func (run *batchRun) compare(tasks []skills.Task, got, want []*team.Team) {
	for i := range tasks {
		run.checked++
		g, w := got[i], want[i]
		same := (g == nil) == (w == nil)
		if same && g != nil {
			same = g.Cost == w.Cost && slices.Equal(g.Members, w.Members)
		}
		if !same {
			run.mismatches++
			if len(run.notes) < 3 {
				run.notes = append(run.notes, fmt.Sprintf("task %v: batch %+v, Workers=1 %+v", tasks[i], g, w))
			}
		}
	}
}
