package cliflags

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/sgraph"
	"repro/internal/skills"
)

func TestDataRegister(t *testing.T) {
	var d Data
	parseSet(t, d.Register)
	if d != (Data{Seed: 1}) {
		t.Fatalf("defaults %+v, want only -seed 1", d)
	}
	parseSet(t, d.Register, "-dataset", "epinions", "-edges", "g.edges", "-skills", "g.skills", "-seed", "5", "-scale", "0.3")
	if d != (Data{Name: "epinions", Edges: "g.edges", Skills: "g.skills", Seed: 5, Scale: 0.3}) {
		t.Fatalf("parsed %+v", d)
	}
}

// TestDataLoadSources: exactly one source must be given.
func TestDataLoadSources(t *testing.T) {
	for _, tc := range []struct {
		d    Data
		want string
	}{
		{Data{Name: "slashdot", Edges: "g.edges", Skills: "g.skills"}, "pass either -dataset or -edges/-skills, not both"},
		{Data{Name: "slashdot", Edges: "g.edges"}, "pass either -dataset or -edges/-skills, not both"},
		{Data{}, "pass -dataset, or -edges together with -skills"},
		{Data{Edges: "g.edges"}, "pass -dataset, or -edges together with -skills"},
		{Data{Skills: "g.skills"}, "pass -dataset, or -edges together with -skills"},
	} {
		if _, err := tc.d.Load(); err == nil || err.Error() != tc.want {
			t.Errorf("Load(%+v) = %v, want %q", tc.d, err, tc.want)
		}
	}
}

// TestDataLoadFiles: a stand-in saved as an edge list and skill TSV
// loads back through -edges/-skills with the same graph, edge for edge
// (same ids, same sign), and the same skills per user; a skill row for
// an id that has no edge is refused by id.
func TestDataLoadFiles(t *testing.T) {
	want, err := (&Data{Name: "slashdot", Seed: 3}).Load()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := want.Save(dir); err != nil {
		t.Fatal(err)
	}
	d := Data{Edges: filepath.Join(dir, "slashdot.edges"), Skills: filepath.Join(dir, "slashdot.skills")}
	got, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Edges {
		t.Errorf("name %q, want the edge file %q", got.Name, d.Edges)
	}
	if got.Graph.NumNodes() != want.Graph.NumNodes() || got.Graph.NumEdges() != want.Graph.NumEdges() ||
		got.Graph.NumNegativeEdges() != want.Graph.NumNegativeEdges() {
		t.Fatalf("loaded %d nodes, %d edges, %d negative; saved %d, %d, %d",
			got.Graph.NumNodes(), got.Graph.NumEdges(), got.Graph.NumNegativeEdges(),
			want.Graph.NumNodes(), want.Graph.NumEdges(), want.Graph.NumNegativeEdges())
	}
	for _, e := range want.Graph.Edges() {
		if s, ok := got.Graph.EdgeSign(e.U, e.V); !ok || s != e.Sign {
			t.Fatalf("saved edge (%d,%d) sign %v loads as sign %v, present %v", e.U, e.V, e.Sign, s, ok)
		}
	}
	if got.Assign.NumUsers() != want.Assign.NumUsers() {
		t.Fatalf("loaded %d users, saved %d", got.Assign.NumUsers(), want.Assign.NumUsers())
	}
	for u := range want.Assign.NumUsers() {
		if g, w := skillNames(got.Assign, u), skillNames(want.Assign, u); !slices.Equal(g, w) {
			t.Fatalf("user %d: loaded skills %v, saved %v", u, g, w)
		}
	}
	if _, err := (&Data{Edges: d.Edges, Skills: filepath.Join(dir, "absent.skills")}).Load(); err == nil {
		t.Fatal("missing skill file accepted")
	}
	stray := filepath.Join(dir, "stray.skills")
	n := want.Graph.NumNodes()
	if err := os.WriteFile(stray, []byte(fmt.Sprintf("# universe: go\n%d\tgo\n", n)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = (&Data{Edges: d.Edges, Skills: stray}).Load()
	if wantErr := fmt.Sprintf("skills: line 2: user %d has no edge in the graph", n); err == nil || err.Error() != wantErr {
		t.Fatalf("skill row for id %d: err %v, want %q", n, err, wantErr)
	}
}

func skillNames(a *skills.Assignment, u int) []string {
	var names []string
	for _, s := range a.UserSkills(sgraph.NodeID(u)) {
		names = append(names, a.Universe().Name(s))
	}
	return names
}

func TestParseTask(t *testing.T) {
	u, err := skills.NewUniverse([]string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	task, err := ParseTask(u, "C, A")
	if err != nil || !slices.Equal(task, skills.NewTask(0, 2)) {
		t.Fatalf("ParseTask(C, A) = %v, %v; want [0 2]", task, err)
	}
	for spec, want := range map[string]string{
		"A,Z":  `unknown skill "Z"`,
		"A, Z": `unknown skill " Z"`,
		"A,":   `unknown skill ""`,
		"":     `unknown skill ""`,
	} {
		if _, err := ParseTask(u, spec); err == nil || err.Error() != want {
			t.Errorf("ParseTask(%q) = %v, want %q", spec, err, want)
		}
	}
}
