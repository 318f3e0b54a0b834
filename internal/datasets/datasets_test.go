package datasets

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sgraph"
	"repro/internal/skills"
)

func TestSlashdotSimShape(t *testing.T) {
	d, err := SlashdotSim(1)
	if err != nil {
		t.Fatalf("SlashdotSim: %v", err)
	}
	s := d.ComputeStats()
	if s.Users != 214 {
		t.Fatalf("users = %d, want 214", s.Users)
	}
	if s.Edges < 280 || s.Edges > 330 {
		t.Fatalf("edges = %d, want ≈304", s.Edges)
	}
	if math.Abs(s.NegFrac-0.292) > 0.01 {
		t.Fatalf("neg frac = %.3f, want ≈0.292", s.NegFrac)
	}
	if !d.Graph.IsConnected() {
		t.Fatal("dataset must be connected")
	}
	if s.Diameter < 5 {
		t.Fatalf("diameter = %d, suspiciously small for a sparse graph", s.Diameter)
	}
	if d.Assign.Universe().Len() != 1024 {
		t.Fatalf("universe = %d skills, want 1024", d.Assign.Universe().Len())
	}
	if len(d.Camps) != 214 {
		t.Fatal("camps missing")
	}
}

func TestEpinionsSimShape(t *testing.T) {
	d, err := EpinionsSim(1, 0.05) // half the default scale to keep the test fast
	if err != nil {
		t.Fatalf("EpinionsSim: %v", err)
	}
	g := d.Graph
	scale := 0.05
	wantN := int(28854*scale + 0.5)
	if g.NumNodes() != wantN {
		t.Fatalf("users = %d, want %d", g.NumNodes(), wantN)
	}
	wantM := int(208778*scale + 0.5)
	if g.NumEdges() < wantM || g.NumEdges() > wantM+wantN/10 {
		t.Fatalf("edges = %d, want ≈%d", g.NumEdges(), wantM)
	}
	negFrac := float64(g.NumNegativeEdges()) / float64(g.NumEdges())
	if math.Abs(negFrac-0.167) > 0.01 {
		t.Fatalf("neg frac = %.3f, want ≈0.167", negFrac)
	}
	if !g.IsConnected() {
		t.Fatal("dataset must be connected")
	}
	if d.Assign.Universe().Len() != 523 {
		t.Fatalf("universe = %d, want 523", d.Assign.Universe().Len())
	}
}

func TestWikipediaSimShape(t *testing.T) {
	d, err := WikipediaSim(1, 0.1)
	if err != nil {
		t.Fatalf("WikipediaSim: %v", err)
	}
	g := d.Graph
	negFrac := float64(g.NumNegativeEdges()) / float64(g.NumEdges())
	if math.Abs(negFrac-0.215) > 0.01 {
		t.Fatalf("neg frac = %.3f, want ≈0.215", negFrac)
	}
	if !g.IsConnected() {
		t.Fatal("dataset must be connected")
	}
	// Denser than Epinions: average degree ≈28.5 at any scale.
	avgDeg := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	if avgDeg < 20 || avgDeg > 40 {
		t.Fatalf("average degree = %.1f, want ≈28.5", avgDeg)
	}
}

func TestDatasetsMostlyBalancedTriangles(t *testing.T) {
	// The stand-ins must live in the mostly-balanced regime of real
	// signed networks: the triangle census should be dominated by
	// balanced triangles (Leskovec et al. report ≈0.9 on the real
	// datasets).
	d, err := EpinionsSim(1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := d.ComputeStats()
	if s.Triangles.Total() == 0 {
		t.Fatal("Epinions stand-in has no triangles")
	}
	if f := s.Triangles.BalancedFraction(); f < 0.8 {
		t.Fatalf("balanced triangle fraction = %.3f, want ≥ 0.8 (mostly balanced)", f)
	}
}

func TestLoadByName(t *testing.T) {
	for _, name := range Names() {
		scale := 0.03
		d, err := Load(name, 7, scale)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if d.Name != name {
			t.Fatalf("name = %q", d.Name)
		}
	}
	if _, err := Load("nope", 1, 0); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadDeterministic(t *testing.T) {
	d1, err := SlashdotSim(42)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := SlashdotSim(42)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := d1.Graph.Edges(), d2.Graph.Edges()
	if len(e1) != len(e2) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("nondeterministic edges")
		}
	}
	for u := 0; u < 214; u++ {
		s1, s2 := d1.Assign.UserSkills(sgraph.NodeID(u)), d2.Assign.UserSkills(sgraph.NodeID(u))
		if len(s1) != len(s2) {
			t.Fatal("nondeterministic skills")
		}
	}
	// Different seed differs.
	d3, err := SlashdotSim(43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	e3 := d3.Graph.Edges()
	if len(e3) != len(e1) {
		same = false
	} else {
		for i := range e1 {
			if e1[i] != e3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestScaleTooSmall(t *testing.T) {
	if _, err := EpinionsSim(1, 0.0001); err == nil {
		t.Fatal("degenerate scale accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	d, err := SlashdotSim(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for _, suffix := range []string{".edges", ".skills"} {
		if _, err := os.Stat(filepath.Join(dir, "slashdot"+suffix)); err != nil {
			t.Fatalf("missing %s: %v", suffix, err)
		}
	}
	got, err := LoadDir(dir, "slashdot")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if got.Graph.NumEdges() != d.Graph.NumEdges() ||
		got.Graph.NumNegativeEdges() != d.Graph.NumNegativeEdges() {
		t.Fatal("edge counts changed through snapshot")
	}
	if got.Assign.TotalAssignments() != d.Assign.TotalAssignments() {
		t.Fatal("skill assignments changed through snapshot")
	}
}

// LoadDir reads a dataset saved by Save.
func LoadDir(dir, name string) (*Dataset, error) {
	ef, err := os.Open(filepath.Join(dir, name+".edges"))
	if err != nil {
		return nil, fmt.Errorf("datasets: load: %w", err)
	}
	defer ef.Close()
	g, ids, err := sgraph.ReadEdgeList(ef)
	if err != nil {
		return nil, err
	}
	sf, err := os.Open(filepath.Join(dir, name+".skills"))
	if err != nil {
		return nil, fmt.Errorf("datasets: load: %w", err)
	}
	defer sf.Close()
	assign, err := skills.ReadTSV(sf, ids)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: name, Graph: g, Assign: assign}, nil
}

func TestLoadDirMissing(t *testing.T) {
	if _, err := LoadDir(t.TempDir(), "absent"); err == nil {
		t.Fatal("missing dataset accepted")
	}
}
