package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/team"
)

// Table1Row is one dataset's statistics line (paper Table 1).
type Table1Row struct {
	Dataset  string
	Users    int
	Edges    int
	NegEdges int
	NegFrac  float64
	Diameter int32
	Skills   int
}

// Table1 measures dataset statistics for the named datasets (nil =
// all three).
func Table1(cfg Config, names []string) ([]Table1Row, error) {
	cfg = cfg.WithDefaults()
	if names == nil {
		names = datasets.Names()
	}
	rows := make([]Table1Row, 0, len(names))
	for _, name := range names {
		d, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		s := d.ComputeStats()
		rows = append(rows, Table1Row{
			Dataset:  s.Name,
			Users:    s.Users,
			Edges:    s.Edges,
			NegEdges: s.NegEdges,
			NegFrac:  s.NegFrac,
			Diameter: s.Diameter,
			Skills:   s.Skills,
		})
	}
	return rows, nil
}

// Table2Row is one (dataset, relation) cell group of the paper's
// Table 2.
type Table2Row struct {
	Dataset  string
	Relation compat.Kind
	// Engine names the relation backend that actually produced the
	// row ("lazy", "matrix" or "sharded"), so results stay
	// attributable. Since the SBPH stats unification every engine
	// measures the same symmetrised relation on full scans (see
	// compat.Stats), so there the engine no longer changes the
	// numbers; sampled SBPH cells can still differ in the second
	// decimal between lazy and packed engines. Exact SBP rows always
	// read "lazy" — cliflags.Engine.Build keeps SBP on the lazy engine
	// even under a packed Config.Engine.
	Engine     string
	CompUsers  float64 // fraction of compatible user pairs
	CompSkills float64 // fraction of compatible skill pairs
	AvgDist    float64 // average relation-distance between compatible users
	Skipped    bool    // exact SBP is only computed on Slashdot, as in the paper
	Sampled    bool
}

// Table2Relations are the columns of Table 2.
func Table2Relations() []compat.Kind {
	return []compat.Kind{compat.SPA, compat.SPM, compat.SPO, compat.SBPH, compat.SBP, compat.NNE}
}

// Table2 compares the compatibility relations on the named datasets
// (nil = all three), reproducing the paper's Table 2 including the
// SBP-vs-SBPH comparison on Slashdot.
func Table2(cfg Config, names []string) ([]Table2Row, error) {
	cfg = cfg.WithDefaults()
	if names == nil {
		names = datasets.Names()
	}
	var rows []Table2Row
	for _, name := range names {
		d, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 101))
		sources := sampleSources(cfg, rng, d.Graph.NumNodes())
		for _, k := range Table2Relations() {
			if k == compat.SBP && name != "slashdot" {
				rows = append(rows, Table2Row{Dataset: name, Relation: k, Skipped: true})
				continue
			}
			rel, engine, err := cfg.Engine.Build(k, d.Graph, compat.Options{})
			if err != nil {
				return nil, err
			}
			stats, err := compat.ComputeStats(rel, compat.StatsOptions{
				Sources: sources,
				Workers: cfg.Workers,
				Assign:  d.Assign,
			})
			rel.Close()
			if err != nil {
				return nil, fmt.Errorf("experiments: table 2 %s/%v: %w", name, k, err)
			}
			rows = append(rows, Table2Row{
				Dataset:    name,
				Relation:   k,
				Engine:     engine,
				CompUsers:  stats.UserFraction(),
				CompSkills: stats.Skills.Fraction(d.Assign),
				AvgDist:    stats.AvgDistance(),
				Sampled:    sources != nil,
			})
		}
	}
	return rows, nil
}

// Table3Row reports, for one unsigned projection and one relation,
// the fraction of RarestFirst teams that satisfy the relation
// (paper Table 3; the paper reports these on Epinions).
type Table3Row struct {
	Projection     string // "ignore-sign" or "delete-negative"
	Relation       compat.Kind
	CompatibleFrac float64
	TeamsFormed    int
}

// Table3Projections lists the two unsigned projections of the paper.
func Table3Projections() []string { return []string{"ignore-sign", "delete-negative"} }

// Table3 runs the unsigned RarestFirst baseline of Lappas et al. on
// the two unsigned projections of the Epinions stand-in and measures
// how often its teams are compatible under each signed relation.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg = cfg.WithDefaults()
	d, err := loadDataset(cfg, cfg.Dataset)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 202))
	tasks, err := sampleTasks(rng, d.Assign, cfg.Tasks, cfg.TaskSize)
	if err != nil {
		return nil, err
	}

	var rows []Table3Row
	for _, proj := range Table3Projections() {
		var unsigned = d.Graph.IgnoreSigns()
		if proj == "delete-negative" {
			unsigned = d.Graph.DeleteNegative()
		}
		var teams [][]int32
		for _, task := range tasks {
			tm, err := team.RarestFirstUnsigned(unsigned, d.Assign, task)
			if err != nil {
				if errors.Is(err, team.ErrNoTeam) {
					continue
				}
				return nil, err
			}
			teams = append(teams, tm.Members)
		}
		for _, k := range TeamRelations() {
			rel, _, err := cfg.Engine.Build(k, d.Graph, compat.Options{})
			if err != nil {
				return nil, err
			}
			compatible := 0
			for _, members := range teams {
				ok, err := team.Compatible(rel, members)
				if err != nil {
					rel.Close()
					return nil, err
				}
				if ok {
					compatible++
				}
			}
			rel.Close()
			frac := 0.0
			if len(teams) > 0 {
				frac = float64(compatible) / float64(len(teams))
			}
			rows = append(rows, Table3Row{
				Projection:     proj,
				Relation:       k,
				CompatibleFrac: frac,
				TeamsFormed:    len(teams),
			})
		}
	}
	return rows, nil
}
