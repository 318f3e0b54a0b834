package experiments

import (
	"strings"
	"testing"

	"repro/internal/cliflags"
	"repro/internal/compat"
	"repro/internal/team"
)

// tinyConfig keeps experiment tests fast: small dataset scales, few
// tasks. Shape assertions stay meaningful at this size.
func tinyConfig() Config {
	return Config{
		Seed:      7,
		Scale:     0.02, // Epinions ≈577 users, Wikipedia ≈141 users
		Tasks:     12,
		TaskSize:  4,
		TaskSizes: []int{2, 4},
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Seed == 0 || c.Tasks != 50 || c.TaskSize != 5 || len(c.TaskSizes) == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{Tasks: 3}.WithDefaults()
	if c2.Tasks != 3 {
		t.Fatal("explicit Tasks overridden")
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(tinyConfig(), []string{"slashdot"})
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Dataset != "slashdot" || r.Users != 214 {
		t.Fatalf("row = %+v", r)
	}
	if r.NegFrac < 0.28 || r.NegFrac > 0.31 {
		t.Fatalf("neg frac = %.3f", r.NegFrac)
	}
	if r.Diameter <= 0 || r.Skills <= 0 {
		t.Fatalf("row = %+v", r)
	}
	out := RenderTable1(rows).String()
	if !strings.Contains(out, "slashdot") || !strings.Contains(out, "214") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTable2ShapeOnSlashdot(t *testing.T) {
	cfg := tinyConfig()
	// Sample sources: exact SBP explores paths up to diameter+2
	// (cliflags.RelationOptions), so a full 214-source sweep would
	// dominate the test run.
	cfg.SampleSources = 25
	rows, err := Table2(cfg, []string{"slashdot"})
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	got := map[compat.Kind]Table2Row{}
	for _, r := range rows {
		got[r.Relation] = r
	}
	if len(got) != len(Table2Relations()) {
		t.Fatalf("missing relations: %v", got)
	}
	// Monotone growth of compatible pairs with relaxation
	// (Proposition 3.5): SPA ≤ SPM ≤ SPO ≤ SBP ≤ NNE.
	chain := []compat.Kind{compat.SPA, compat.SPM, compat.SPO, compat.SBP, compat.NNE}
	for i := 1; i < len(chain); i++ {
		lo, hi := got[chain[i-1]], got[chain[i]]
		if lo.Skipped || hi.Skipped {
			t.Fatalf("SBP unexpectedly skipped on slashdot")
		}
		if lo.CompUsers > hi.CompUsers+1e-9 {
			t.Fatalf("comp users not monotone: %v=%.4f > %v=%.4f",
				chain[i-1], lo.CompUsers, chain[i], hi.CompUsers)
		}
		if lo.CompSkills > hi.CompSkills+1e-9 {
			t.Fatalf("comp skills not monotone: %v > %v", chain[i-1], chain[i])
		}
	}
	// SBPH under-approximates SBP.
	if got[compat.SBPH].CompUsers > got[compat.SBP].CompUsers+1e-9 {
		t.Fatal("SBPH exceeds SBP")
	}
	// Render includes every relation column.
	out := RenderTable2(rows).String()
	for _, k := range Table2Relations() {
		if !strings.Contains(out, k.String()) {
			t.Fatalf("render missing %v:\n%s", k, out)
		}
	}
}

func TestTable2SkipsSBPOffSlashdot(t *testing.T) {
	cfg := tinyConfig()
	cfg.SampleSources = 40 // keep it quick
	rows, err := Table2(cfg, []string{"wikipedia"})
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	sawSkip := false
	for _, r := range rows {
		if r.Relation == compat.SBP {
			if !r.Skipped {
				t.Fatal("SBP must be skipped on wikipedia")
			}
			sawSkip = true
		} else if r.Skipped {
			t.Fatalf("%v unexpectedly skipped", r.Relation)
		} else if !r.Sampled {
			t.Fatalf("%v should be marked sampled", r.Relation)
		}
	}
	if !sawSkip {
		t.Fatal("no SBP row")
	}
	if out := RenderTable2(rows).String(); !strings.Contains(out, "-") {
		t.Fatalf("render missing skip marker:\n%s", out)
	}
}

// TestTable2EnginesAgree: the three relation engines must produce the
// same Table 2 rows for the row-symmetric relations, and the two
// packed engines must agree on everything including SBPH (both
// measure the symmetrised relation; the lazy engine's directed SBPH
// heuristic is the documented exception). The sharded run uses shards
// small enough that most of them live in the spill file, read back
// through the mmap path.
func TestTable2EnginesAgree(t *testing.T) {
	base := tinyConfig()
	base.SampleSources = 25
	run := func(engine string) (map[compat.Kind]Table2Row, []Table2Row) {
		cfg := base
		cfg.Engine = cliflags.Engine{Name: engine}
		if engine == "sharded" {
			cfg.Engine = cliflags.Engine{Name: engine, ShardRows: 16, MaxResidentShards: 2, MmapSpill: true}
		}
		rows, err := Table2(cfg, []string{"slashdot"})
		if err != nil {
			t.Fatalf("Table2 engine=%s: %v", engine, err)
		}
		got := map[compat.Kind]Table2Row{}
		for _, r := range rows {
			// SBP rows are always attributed to the lazy engine: the
			// packed engines never build exact SBP.
			want := engine
			if r.Relation == compat.SBP {
				want = "lazy"
			}
			if r.Engine != want {
				t.Fatalf("row %v attributes engine %q, want %q", r.Relation, r.Engine, want)
			}
			r.Engine = "" // compare measurements, not attribution
			got[r.Relation] = r
		}
		return got, rows
	}
	lazy, _ := run("lazy")
	matrix, _ := run("matrix")
	sharded, shardedRows := run("sharded")
	for _, k := range Table2Relations() {
		if k != compat.SBPH { // documented lazy-vs-packed SBPH divergence
			if lazy[k] != matrix[k] {
				t.Fatalf("%v: lazy %+v != matrix %+v", k, lazy[k], matrix[k])
			}
		}
		m, s := matrix[k], sharded[k]
		if m != s {
			t.Fatalf("%v: matrix %+v != sharded %+v", k, m, s)
		}
	}
	if out := RenderTable2(shardedRows).String(); !strings.Contains(out, "engine=sharded") {
		t.Fatalf("render title missing engine attribution:\n%s", out)
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	cfg := tinyConfig()
	cfg.Engine = cliflags.Engine{Name: "gpu"}
	if _, err := Table2(cfg, []string{"slashdot"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestTable3(t *testing.T) {
	rows, err := Table3(tinyConfig())
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if len(rows) != 2*len(TeamRelations()) {
		t.Fatalf("rows = %d", len(rows))
	}
	byProj := map[string]map[compat.Kind]Table3Row{}
	for _, r := range rows {
		if r.TeamsFormed == 0 {
			t.Fatalf("no teams formed for %+v", r)
		}
		if r.CompatibleFrac < 0 || r.CompatibleFrac > 1 {
			t.Fatalf("fraction out of range: %+v", r)
		}
		if byProj[r.Projection] == nil {
			byProj[r.Projection] = map[compat.Kind]Table3Row{}
		}
		byProj[r.Projection][r.Relation] = r
	}
	// Monotonicity in the relation chain must hold per projection:
	// the same teams are checked against nested relations.
	chain := []compat.Kind{compat.SPA, compat.SPM, compat.SPO, compat.NNE}
	for proj, group := range byProj {
		for i := 1; i < len(chain); i++ {
			if group[chain[i-1]].CompatibleFrac > group[chain[i]].CompatibleFrac+1e-9 {
				t.Fatalf("%s: fraction not monotone from %v to %v", proj, chain[i-1], chain[i])
			}
		}
	}
	out := RenderTable3(rows).String()
	if !strings.Contains(out, "ignore-sign") || !strings.Contains(out, "delete-negative") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure2ab(t *testing.T) {
	results, err := Figure2ab(tinyConfig())
	if err != nil {
		t.Fatalf("Figure2ab: %v", err)
	}
	// 4 algorithms (incl. MAX) × 5 relations.
	if len(results) != 4*len(TeamRelations()) {
		t.Fatalf("results = %d", len(results))
	}
	byKey := map[string]AlgoResult{}
	for _, r := range results {
		byKey[r.Relation.String()+"/"+r.Algorithm] = r
		if r.SolvedFrac < 0 || r.SolvedFrac > 1 {
			t.Fatalf("fraction out of range: %+v", r)
		}
	}
	// MAX is an upper bound on every algorithm's solution rate.
	for _, k := range TeamRelations() {
		max := byKey[k.String()+"/"+AlgoMax].SolvedFrac
		for _, algo := range []string{AlgoLCMD, AlgoLCMC, AlgoRandom} {
			if got := byKey[k.String()+"/"+algo].SolvedFrac; got > max+1e-9 {
				t.Fatalf("%v/%s solved %.3f exceeds MAX %.3f", k, algo, got, max)
			}
		}
	}
	outA := RenderFigure2a(results).String()
	if !strings.Contains(outA, "MAX") || !strings.Contains(outA, "LCMD") {
		t.Fatalf("fig2a render:\n%s", outA)
	}
	outB := RenderFigure2b(results).String()
	if strings.Contains(outB, "MAX") {
		t.Fatalf("fig2b render must not include MAX:\n%s", outB)
	}
}

func TestFigure2cd(t *testing.T) {
	results, err := Figure2cd(tinyConfig())
	if err != nil {
		t.Fatalf("Figure2cd: %v", err)
	}
	if len(results) != len(TeamRelations())*2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Tasks == 0 {
			t.Fatalf("no tasks at %+v", r)
		}
	}
	outC := RenderFigure2c(results).String()
	if !strings.Contains(outC, "k=2") || !strings.Contains(outC, "k=4") {
		t.Fatalf("fig2c render:\n%s", outC)
	}
	if out := RenderFigure2d(results).String(); !strings.Contains(out, "relation") {
		t.Fatalf("fig2d render:\n%s", out)
	}
}

func TestPolicyGrid(t *testing.T) {
	results, err := PolicyGrid(tinyConfig(), nil)
	if err != nil {
		t.Fatalf("PolicyGrid: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		seen[r.Skill.String()+"/"+r.User.String()] = true
	}
	for _, want := range []string{
		team.RarestFirst.String() + "/" + team.MinDistance.String(),
		team.LeastCompatibleFirst.String() + "/" + team.MostCompatible.String(),
	} {
		if !seen[want] {
			t.Fatalf("missing combination %s", want)
		}
	}
	if out := RenderPolicyGrid(results).String(); !strings.Contains(out, "LeastCompatible") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure2abOnOtherDatasets(t *testing.T) {
	// The paper: "Results are similar for the other networks." Verify
	// the experiment runs and keeps its headline shape on the
	// Wikipedia stand-in too.
	cfg := tinyConfig()
	cfg.Dataset = "wikipedia"
	cfg.Scale = 0.04
	results, err := Figure2ab(cfg)
	if err != nil {
		t.Fatalf("Figure2ab(wikipedia): %v", err)
	}
	byKey := map[string]float64{}
	for _, r := range results {
		byKey[r.Relation.String()+"/"+r.Algorithm] = r.SolvedFrac
	}
	// NNE must solve at least as many tasks as SPA for each algorithm.
	for _, algo := range []string{AlgoLCMD, AlgoLCMC} {
		if byKey["NNE/"+algo]+1e-9 < byKey["SPA/"+algo] {
			t.Fatalf("%s: NNE %.2f below SPA %.2f on wikipedia", algo, byKey["NNE/"+algo], byKey["SPA/"+algo])
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	cfg := tinyConfig()
	r1, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("Table3 row %d differs across runs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}
