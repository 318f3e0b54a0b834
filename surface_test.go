package signedteams_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFacadeSurface pins the root package's exported names. The facade
// re-exports internal names, and a re-export counts as a use, so a
// facade name nothing calls would otherwise go unnoticed: adding or
// removing one has to update this list on purpose.
func TestFacadeSurface(t *testing.T) {
	want := []string{
		"Assignment", "AverageDistance", "BalanceCamps", "Builder",
		"CampsForNegFraction", "ChungLu", "ComputeRelationStats", "CostKind",
		"CountTriangles", "DPE", "Dataset", "DatasetNames", "DatasetStats",
		"Diameter", "DiameterCost", "Distances", "Edge", "ErdosRenyi",
		"ErrInfeasibleTeam", "ErrNoTeam", "ExactOptions", "ExactTeam",
		"FactionSigns", "FormOptions", "FormTeam", "FromEdges",
		"Frustration", "GenerateProductSkills", "GenerateUniverse",
		"GenerateZipfSkills", "Graph", "IsBalanced", "LeastCompatibleFirst",
		"LoadDataset", "MinDistance", "MostCompatible", "MustFromEdges",
		"NNE", "Negative", "NewAssignment", "NewBuilder", "NewRelation",
		"NewShardedRelation", "NewTask", "NewTeamSolver", "NewUniverse",
		"NodeID", "OpenShardedRelation", "ParseRelationKind",
		"PlanCacheStats", "Positive", "PrecomputeRelation",
		"ProductReviewConfig", "RandomCamps", "RandomTask", "RandomUser",
		"RarestFirst", "RarestFirstUnsigned", "ReadEdgeList", "Relation",
		"RelationKind", "RelationKinds", "RelationOptions", "RelationStats",
		"SBP", "SBPH", "SPA", "SPM", "SPO", "ShardedRelation",
		"ShardedRelationOptions", "Sign", "SkillID", "SkillMatrix",
		"SkillPolicy", "StatsOptions", "SumDistanceCost", "Task", "Team",
		"TeamCompatible", "TeamConstraints", "TeamCost", "TeamCostWith",
		"TeamPlan", "TeamSolver", "TeamSolverOptions", "Topology",
		"TriangleCensus", "UniformSigns", "Universe", "UserPolicy",
		"WattsStrogatz", "WriteEdgeList", "ZipfConfig",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("facade names (%d):\n got %q\nwant %q", len(got), got, want)
	}
}
