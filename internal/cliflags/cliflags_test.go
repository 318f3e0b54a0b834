package cliflags

import (
	"flag"
	"testing"
	"time"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/team"
)

// parse runs a throwaway FlagSet over args and returns the explicitly
// set flag names, mirroring what the binaries collect with Visit.
func parseSet(t *testing.T, reg func(*flag.FlagSet), args ...string) map[string]bool {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	reg(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

func TestEngineValidate(t *testing.T) {
	var e Engine
	set := parseSet(t, e.Register, "-engine=lazy", "-shard-rows=8")
	if err := e.Validate(set); err == nil {
		t.Fatal("sharded-only flag under -engine=lazy not rejected")
	}
	e = Engine{}
	set = parseSet(t, e.Register, "-engine=sharded", "-shard-rows=8", "-mmap-spill=false")
	if err := e.Validate(set); err != nil {
		t.Fatalf("valid sharded flags rejected: %v", err)
	}
	for _, name := range []string{"quantum", "bogus"} {
		e = Engine{}
		set = parseSet(t, e.Register, "-engine="+name)
		if err := e.Validate(set); err == nil {
			t.Fatalf("unknown engine name %q not rejected", name)
		}
	}
}

// TestValidateEngine: each sharded-only flag passes under -engine=sharded
// and is rejected under every other engine; other flags pass anywhere.
func TestValidateEngine(t *testing.T) {
	for _, name := range []string{"shard-rows", "max-resident-shards", "mmap-spill"} {
		if err := (&Engine{Name: "sharded"}).Validate(map[string]bool{name: true}); err != nil {
			t.Errorf("-%s under -engine=sharded must pass, got %v", name, err)
		}
		for _, engine := range []string{"lazy", "matrix", ""} {
			if err := (&Engine{Name: engine}).Validate(map[string]bool{name: true}); err == nil {
				t.Errorf("-%s under -engine=%q must be rejected", name, engine)
			}
		}
	}
	if err := (&Engine{Name: "lazy"}).Validate(map[string]bool{"seed": true}); err != nil {
		t.Errorf("engine-agnostic flags must pass under any engine, got %v", err)
	}
	if err := (&Engine{Name: "lazy"}).Validate(nil); err != nil {
		t.Errorf("no flags set must pass, got %v", err)
	}
}

// TestEngineBuild: each engine name builds the advertised backend, and
// exact SBP falls back to lazy regardless of the selection.
func TestEngineBuild(t *testing.T) {
	g := sgraph.MustFromEdges(4, []sgraph.Edge{
		{U: 0, V: 1, Sign: 1}, {U: 1, V: 2, Sign: 1}, {U: 2, V: 3, Sign: -1},
	})
	for _, tc := range []struct {
		engine, want string
		kind         compat.Kind
	}{
		{"lazy", "lazy", compat.SPO},
		{"", "lazy", compat.SPO},
		{"matrix", "matrix", compat.SPO},
		{"sharded", "sharded", compat.SPO},
		{"matrix", "lazy", compat.SBP}, // exact SBP stays lazy
		{"sharded", "lazy", compat.SBP},
	} {
		e := Engine{Name: tc.engine, MmapSpill: true}
		rel, got, err := e.Build(tc.kind, g, compat.Options{})
		if err != nil {
			t.Fatalf("Build(%s, %v): %v", tc.engine, tc.kind, err)
		}
		if got != tc.want {
			t.Fatalf("Build(%s, %v) built %q, want %q", tc.engine, tc.kind, got, tc.want)
		}
		// The matrix engine is the packed engine as one resident shard.
		if got == "matrix" {
			sm := rel.(*compat.ShardedMatrix)
			if sm.NumShards() != 1 || sm.ResidentShards() != 1 {
				t.Fatalf("matrix engine: %d shards, %d resident, want 1 and 1", sm.NumShards(), sm.ResidentShards())
			}
		}
		rel.Close()
	}
	if _, _, err := (&Engine{Name: "quantum"}).Build(compat.SPO, g, compat.Options{}); err == nil {
		t.Fatal("Build with unknown engine did not fail")
	}
}

func TestServeValidate(t *testing.T) {
	good := Serve{Deadline: time.Second, Queue: 4, CoalesceWait: time.Millisecond, CoalesceBatch: 8, DrainTimeout: time.Second}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid serve flags rejected: %v", err)
	}
	for name, bad := range map[string]Serve{
		"negative deadline":      {Deadline: -time.Second, Queue: 4},
		"zero queue":             {Queue: 0},
		"batch without wait":     {Queue: 4, CoalesceBatch: 8},
		"negative wait":          {Queue: 4, CoalesceWait: -time.Millisecond},
		"negative batch":         {Queue: 4, CoalesceBatch: -1},
		"negative drain timeout": {Queue: 4, DrainTimeout: -time.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s not rejected", name)
		}
	}
}

// TestServeRegisterDefaults: the daemon defaults are themselves valid.
func TestServeRegisterDefaults(t *testing.T) {
	var s Serve
	parseSet(t, s.Register)
	if err := s.Validate(); err != nil {
		t.Fatalf("default serve flags invalid: %v", err)
	}
	var one Serve
	set := parseSet(t, one.RegisterDeadline, "-deadline=250ms")
	if !set["deadline"] || one.Deadline != 250*time.Millisecond {
		t.Fatalf("RegisterDeadline parse: set=%v deadline=%v", set, one.Deadline)
	}
}

func TestPolicyParsers(t *testing.T) {
	for spell, want := range map[string]team.SkillPolicy{
		"rarest": team.RarestFirst, "leastcompatible": team.LeastCompatibleFirst,
		"LC": team.LeastCompatibleFirst, "": team.LeastCompatibleFirst,
	} {
		got, err := ParseSkillPolicy(spell)
		if err != nil || got != want {
			t.Errorf("ParseSkillPolicy(%q) = %v, %v; want %v", spell, got, err, want)
		}
	}
	for spell, want := range map[string]team.UserPolicy{
		"mindistance": team.MinDistance, "MD": team.MinDistance, "": team.MinDistance,
		"mostcompatible": team.MostCompatible, "mc": team.MostCompatible,
		"random": team.RandomUser,
	} {
		got, err := ParseUserPolicy(spell)
		if err != nil || got != want {
			t.Errorf("ParseUserPolicy(%q) = %v, %v; want %v", spell, got, err, want)
		}
	}
	for spell, want := range map[string]team.CostKind{
		"diameter": team.Diameter, "": team.Diameter,
		"sumdistance": team.SumDistance, "SUM": team.SumDistance,
	} {
		got, err := ParseCost(spell)
		if err != nil || got != want {
			t.Errorf("ParseCost(%q) = %v, %v; want %v", spell, got, err, want)
		}
	}
	if _, err := ParseSkillPolicy("x"); err == nil {
		t.Error("bad skill policy accepted")
	}
	if _, err := ParseUserPolicy("x"); err == nil {
		t.Error("bad user policy accepted")
	}
	if _, err := ParseCost("x"); err == nil {
		t.Error("bad cost accepted")
	}
}
