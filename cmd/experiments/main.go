// Command experiments regenerates the paper's tables and figures on
// the synthetic dataset stand-ins.
//
// Usage:
//
//	experiments -all                     # everything (minutes)
//	experiments -table 2 -dataset slashdot
//	experiments -figure 2a -tasks 50
//	experiments -figure policies
//
// Output is aligned text by default; -markdown switches to Markdown
// tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/texttable"
)

func main() {
	var eng cliflags.Engine
	eng.Register(flag.CommandLine)
	var (
		table    = flag.String("table", "", "regenerate a table: 1, 2 or 3")
		figure   = flag.String("figure", "", "regenerate a figure: 2a, 2b, 2c, 2d or policies")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		dataset  = flag.String("dataset", "", "restrict tables 1/2 to one dataset (slashdot, epinions, wikipedia)")
		seed     = flag.Int64("seed", 1, "seed for datasets, tasks and RANDOM")
		scale    = flag.Float64("scale", 0, "dataset scale (0 = defaults: epinions 0.1, wikipedia 0.2)")
		tasks    = flag.Int("tasks", 50, "random tasks per experiment point")
		taskSize = flag.Int("tasksize", 5, "task size for table 3 and figures 2a/2b")
		sample   = flag.Int("sample", 0, "table 2: sample this many source nodes (0 = exact)")
		maxSeeds = flag.Int("maxseeds", 0, "cap Algorithm 2 seeds (0 = all)")
		workers  = flag.Int("workers", 0, "parallel workers for solves, scans and precompute (0 = GOMAXPROCS)")
		markdown = flag.Bool("markdown", false, "emit Markdown tables")
		reps     = flag.Int("reps", 1, "repetitions with consecutive seeds for -figure 2a / -table 3 (mean ± std)")
	)
	flag.Parse()

	// An unknown engine, or the sharded-engine knobs silently doing
	// nothing under another engine, has bitten before: reject both
	// outright (the flag vocabulary is shared with cmd/tfsn and
	// cmd/tfsnd via internal/cliflags).
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := eng.Validate(set); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{
		Seed:          *seed,
		Scale:         *scale,
		Tasks:         *tasks,
		TaskSize:      *taskSize,
		SampleSources: *sample,
		MaxSeeds:      *maxSeeds,
		Workers:       *workers,
		Dataset:       *dataset, // team formation experiments; empty = epinions
		Engine:        eng,
	}
	var names []string
	if *dataset != "" {
		names = []string{*dataset}
	}

	emit := func(t *texttable.Table, elapsed time.Duration) {
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
		// Name the engine under every table so results stay
		// attributable (the packed engines measure the symmetrised
		// SBPH relation, the lazy engine the directed heuristic).
		fmt.Printf("(engine=%s, %.1fs)\n\n", eng.Name, elapsed.Seconds())
	}
	runTable := func(which string) error {
		start := time.Now()
		switch which {
		case "1":
			rows, err := experiments.Table1(cfg, names)
			if err != nil {
				return err
			}
			emit(experiments.RenderTable1(rows), time.Since(start))
		case "2":
			rows, err := experiments.Table2(cfg, names)
			if err != nil {
				return err
			}
			emit(experiments.RenderTable2(rows), time.Since(start))
		case "3":
			if *reps > 1 {
				series, err := experiments.Table3Repeated(cfg, *reps)
				if err != nil {
					return err
				}
				emit(experiments.RenderSeries("Table 3 (repeated): compatible team fraction", series), time.Since(start))
				return nil
			}
			rows, err := experiments.Table3(cfg)
			if err != nil {
				return err
			}
			emit(experiments.RenderTable3(rows), time.Since(start))
		default:
			return fmt.Errorf("unknown table %q (want 1, 2 or 3)", which)
		}
		return nil
	}
	runFigure := func(which string) error {
		start := time.Now()
		switch strings.ToLower(which) {
		case "2a", "2b":
			if *reps > 1 && strings.ToLower(which) == "2a" {
				series, err := experiments.Figure2aRepeated(cfg, *reps)
				if err != nil {
					return err
				}
				emit(experiments.RenderSeries("Figure 2(a) (repeated): solved fraction", series), time.Since(start))
				return nil
			}
			results, err := experiments.Figure2ab(cfg)
			if err != nil {
				return err
			}
			if strings.ToLower(which) == "2a" {
				emit(experiments.RenderFigure2a(results), time.Since(start))
			} else {
				emit(experiments.RenderFigure2b(results), time.Since(start))
			}
		case "2c", "2d":
			results, err := experiments.Figure2cd(cfg)
			if err != nil {
				return err
			}
			if strings.ToLower(which) == "2c" {
				emit(experiments.RenderFigure2c(results), time.Since(start))
			} else {
				emit(experiments.RenderFigure2d(results), time.Since(start))
			}
		case "policies":
			results, err := experiments.PolicyGrid(cfg, nil)
			if err != nil {
				return err
			}
			emit(experiments.RenderPolicyGrid(results), time.Since(start))
		case "beam":
			rows, err := experiments.BeamAblation(cfg, nil)
			if err != nil {
				return err
			}
			emit(experiments.RenderBeamAblation(rows), time.Since(start))
		default:
			return fmt.Errorf("unknown figure %q (want 2a, 2b, 2c, 2d, policies or beam)", which)
		}
		return nil
	}

	var err error
	switch {
	case *all:
		for _, t := range []string{"1", "2", "3"} {
			if err = runTable(t); err != nil {
				break
			}
		}
		if err == nil {
			for _, f := range []string{"2a", "2b", "2c", "2d", "policies"} {
				if err = runFigure(f); err != nil {
					break
				}
			}
		}
	case *table != "":
		err = runTable(*table)
	case *figure != "":
		err = runFigure(*figure)
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -table, -figure or -all")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
