package cliflags

import (
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
// loads back through -edges/-skills with the same graph counts and the
// same skills per user.
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
