package cliflags

import (
	"context"
	"errors"
	"flag"
	"strings"
	"sync"
	"testing"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
	"repro/internal/team"
)

func TestParseUserList(t *testing.T) {
	cases := []struct {
		in   string
		want []sgraph.NodeID
		ok   bool
	}{
		{"", nil, true},
		{"   ", nil, true},
		{"3", []sgraph.NodeID{3}, true},
		{"3,1,17", []sgraph.NodeID{3, 1, 17}, true},
		{" 3 , 1 ", []sgraph.NodeID{3, 1}, true},
		{"7,7", []sgraph.NodeID{7, 7}, true}, // duplicates preserved; Constraints canonicalises
		{"00,012", []sgraph.NodeID{0, 12}, true},
		{"3,", nil, false},
		{"-1", nil, false},
		{"a", nil, false},
		{"3;4", nil, false},
		{"99999999999999999999", nil, false},
	}
	for _, c := range cases {
		got, err := ParseUserList(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseUserList(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseUserList(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseUserList(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestConstraintSpecParse(t *testing.T) {
	spec := ConstraintSpec{Include: "3,1", Exclude: "9", MaxTeam: 5}
	cons, err := spec.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(cons.MustInclude) != 2 || len(cons.MustExclude) != 1 || cons.MaxTeamSize != 5 {
		t.Fatalf("parsed %+v", cons)
	}
	if _, err := (ConstraintSpec{Include: "x"}).Parse(); err == nil || !strings.HasPrefix(err.Error(), "include:") {
		t.Fatalf("bad include: %v, want include: prefix", err)
	}
	if _, err := (ConstraintSpec{Exclude: "-2"}).Parse(); err == nil || !strings.HasPrefix(err.Error(), "exclude:") {
		t.Fatalf("bad exclude: %v, want exclude: prefix", err)
	}
	if _, err := (ConstraintSpec{MaxTeam: -1}).Parse(); err == nil {
		t.Fatal("negative max-team accepted")
	}
	if !(ConstraintSpec{}).IsZero() || (ConstraintSpec{MaxTeam: 1}).IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestConstraintSpecRegister(t *testing.T) {
	var spec ConstraintSpec
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	spec.Register(fs)
	if err := fs.Parse([]string{"-include", "1,2", "-exclude", "3", "-max-team", "4"}); err != nil {
		t.Fatal(err)
	}
	if spec.Include != "1,2" || spec.Exclude != "3" || spec.MaxTeam != 4 {
		t.Fatalf("registered flags parsed %+v", spec)
	}
}

// fuzzInstance is a tiny shared solve fixture for the fuzz target: an
// all-positive 8-clique where everyone holds skill 0 and the first
// four users hold skill 1, so most well-formed constraint sets admit a
// team and the solve branch of the fuzz invariants runs often.
var fuzzInstance struct {
	once   sync.Once
	rel    compat.Relation
	assign *skills.Assignment
	task   skills.Task
}

func fuzzSolveFixture(tb testing.TB) (compat.Relation, *skills.Assignment, skills.Task) {
	fuzzInstance.once.Do(func() {
		const n = 8
		var edges []sgraph.Edge
		for u := int32(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, sgraph.Edge{U: sgraph.NodeID(u), V: sgraph.NodeID(v), Sign: sgraph.Positive})
			}
		}
		g := sgraph.MustFromEdges(n, edges)
		a := skills.NewAssignment(skills.GenerateUniverse(2), n)
		for u := int32(0); u < n; u++ {
			a.MustAdd(sgraph.NodeID(u), 0)
			if u < 4 {
				a.MustAdd(sgraph.NodeID(u), 1)
			}
		}
		fuzzInstance.rel = mustMatrix(tb, compat.NNE, g)
		fuzzInstance.assign = a
		fuzzInstance.task = skills.NewTask(0, 1)
	})
	return fuzzInstance.rel, fuzzInstance.assign, fuzzInstance.task
}

// FuzzConstraintSpec drives arbitrary flag-shaped input through the
// whole constraint pipeline — ParseUserList grammar, Constraints
// canonicalisation, Validate's error classification, and (when the
// constraints are well-formed for the tiny fixture) an actual solve —
// asserting the invariants every layer of the stack relies on: no
// panics, no negative ids past Parse, overlap always classified
// ErrInfeasible, fingerprints deterministic, and returned teams
// honouring their constraints. Wired into the CI fuzz-smoke job.
func FuzzConstraintSpec(f *testing.F) {
	f.Add("1,2,3", "4,5", 4)
	f.Add("", "", 0)
	f.Add(" 7 , 7 ", "7", 1)
	f.Add("0", "0", -1)
	f.Add("00,1", "2", 2)
	f.Add("3,1,2", "", 1) // cap below the include count
	f.Add("4,5,6,7", "0,1,2,3", 0)
	f.Fuzz(func(t *testing.T, include, exclude string, maxTeam int) {
		spec := ConstraintSpec{Include: include, Exclude: exclude, MaxTeam: maxTeam}
		cons, err := spec.Parse()
		if err != nil {
			if spec.IsZero() {
				t.Fatalf("zero spec rejected: %v", err)
			}
			return
		}
		if maxTeam < 0 {
			t.Fatalf("negative max-team %d accepted", maxTeam)
		}
		for _, u := range cons.MustInclude {
			if u < 0 {
				t.Fatalf("negative include %d survived Parse(%q)", u, include)
			}
		}
		for _, u := range cons.MustExclude {
			if u < 0 {
				t.Fatalf("negative exclude %d survived Parse(%q)", u, exclude)
			}
		}
		if fp1, fp2 := cons.Fingerprint(), cons.Fingerprint(); fp1 != fp2 {
			t.Fatalf("fingerprint unstable: %q vs %q", fp1, fp2)
		}
		// Validate must classify, never panic: any error without a
		// universe is either infeasibility or impossible here (ids are
		// non-negative, the cap is non-negative, ranges are skipped).
		verr := cons.Validate(0)
		in := map[sgraph.NodeID]bool{}
		for _, u := range cons.MustInclude {
			in[u] = true
		}
		overlap := false
		for _, u := range cons.MustExclude {
			if in[u] {
				overlap = true
				break
			}
		}
		if overlap && !errors.Is(verr, team.ErrInfeasible) {
			t.Fatalf("include∩exclude overlap validated as %v, want ErrInfeasible", verr)
		}
		if verr != nil && !errors.Is(verr, team.ErrInfeasible) {
			t.Fatalf("well-formed spec validated as a non-infeasibility error: %v", verr)
		}

		// When the constraints fit the tiny fixture, solve for real: the
		// solver must never panic, and a returned team must satisfy the
		// constraints to the letter.
		rel, assign, task := fuzzSolveFixture(t)
		if cons.Validate(assign.NumUsers()) != nil {
			return
		}
		var tm team.Team
		s := team.NewSolver(rel, assign, team.SolverOptions{Workers: 1})
		if err := s.FormIntoContext(context.Background(), task, team.Options{Constraints: cons}, &tm); err != nil {
			if !errors.Is(err, team.ErrNoTeam) {
				t.Fatalf("solve failed hard: %v", err)
			}
			return
		}
		members := map[sgraph.NodeID]bool{}
		for _, u := range tm.Members {
			members[u] = true
		}
		for _, u := range cons.MustInclude {
			if !members[u] {
				t.Fatalf("required member %d missing from %v", u, tm.Members)
			}
		}
		for _, u := range cons.MustExclude {
			if members[u] {
				t.Fatalf("excluded member %d present in %v", u, tm.Members)
			}
		}
		if cons.MaxTeamSize > 0 && len(tm.Members) > cons.MaxTeamSize {
			t.Fatalf("%d members exceed cap %d", len(tm.Members), cons.MaxTeamSize)
		}
	})
}

// mustMatrix builds the matrix configuration of the packed engine: one
// shard holding every row, all resident.
func mustMatrix(tb testing.TB, k compat.Kind, g *sgraph.Graph) *compat.ShardedMatrix {
	tb.Helper()
	return mustSharded(tb, k, g, compat.ShardedOptions{ShardRows: g.NumNodes()})
}

// mustSharded builds a packed engine, failing tb on error.
func mustSharded(tb testing.TB, k compat.Kind, g *sgraph.Graph, opts compat.ShardedOptions) *compat.ShardedMatrix {
	tb.Helper()
	m, err := compat.NewSharded(k, g, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
