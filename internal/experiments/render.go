package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/compat"
	"repro/internal/texttable"
)

// RenderTable1 formats Table 1 rows like the paper's dataset table.
func RenderTable1(rows []Table1Row) *texttable.Table {
	t := texttable.New("dataset", "#users", "#edges", "#neg edges", "diameter", "#skills").
		SetTitle("Table 1: Dataset Statistics")
	for _, r := range rows {
		t.AddRow(
			r.Dataset,
			fmt.Sprintf("%d", r.Users),
			fmt.Sprintf("%d", r.Edges),
			fmt.Sprintf("%d (%.1f%%)", r.NegEdges, 100*r.NegFrac),
			fmt.Sprintf("%d", r.Diameter),
			fmt.Sprintf("%d", r.Skills),
		)
	}
	return t
}

// RenderTable2 formats Table 2 rows grouped per dataset, with the
// relations as columns as in the paper. The title names the relation
// engine that produced the rows. Full scans are bit-identical across
// engines (every engine measures the symmetrised SBPH relation); under
// sampling the SBPH cells can differ in the second decimal (see
// Table2Row.Engine).
func RenderTable2(rows []Table2Row) *texttable.Table {
	headers := []string{"dataset", "metric"}
	for _, k := range Table2Relations() {
		headers = append(headers, k.String())
	}
	title := "Table 2: Comparison of compatibility relations"
	// Attribute every engine that produced rows (exact SBP stays on
	// the lazy engine even under a packed -engine flag, so a packed
	// run legitimately lists two).
	seen := map[string]bool{}
	var engines []string
	for _, r := range rows {
		if r.Engine != "" && !seen[r.Engine] {
			seen[r.Engine] = true
			engines = append(engines, r.Engine)
		}
	}
	if len(engines) > 0 {
		title += fmt.Sprintf(" [engine=%s]", strings.Join(engines, "+"))
	}
	t := texttable.New(headers...).SetTitle(title)

	byDataset := map[string]map[compat.Kind]Table2Row{}
	var order []string
	for _, r := range rows {
		if byDataset[r.Dataset] == nil {
			byDataset[r.Dataset] = map[compat.Kind]Table2Row{}
			order = append(order, r.Dataset)
		}
		byDataset[r.Dataset][r.Relation] = r
	}
	for _, ds := range order {
		group := byDataset[ds]
		metricRow := func(metric string, pick func(Table2Row) string) {
			cells := []string{ds, metric}
			for _, k := range Table2Relations() {
				r, ok := group[k]
				if !ok || r.Skipped {
					cells = append(cells, "-")
					continue
				}
				cells = append(cells, pick(r))
			}
			t.AddRow(cells...)
		}
		metricRow("comp. users %", func(r Table2Row) string { return texttable.Pct(r.CompUsers) })
		metricRow("comp. skills %", func(r Table2Row) string { return texttable.Pct(r.CompSkills) })
		metricRow("avg distance", func(r Table2Row) string { return texttable.F2(r.AvgDist) })
	}
	return t
}

// RenderTable3 formats Table 3 rows as projection × relation.
func RenderTable3(rows []Table3Row) *texttable.Table {
	headers := []string{"projection"}
	for _, k := range TeamRelations() {
		headers = append(headers, k.String())
	}
	t := texttable.New(headers...).
		SetTitle("Table 3: Compatible teams from unsigned team formation (%)")
	byProj := map[string]map[compat.Kind]Table3Row{}
	var order []string
	for _, r := range rows {
		if byProj[r.Projection] == nil {
			byProj[r.Projection] = map[compat.Kind]Table3Row{}
			order = append(order, r.Projection)
		}
		byProj[r.Projection][r.Relation] = r
	}
	for _, proj := range order {
		cells := []string{proj}
		for _, k := range TeamRelations() {
			if r, ok := byProj[proj][k]; ok {
				cells = append(cells, texttable.Pct(r.CompatibleFrac))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// RenderFigure2a formats the solution-rate bars of Figure 2(a).
func RenderFigure2a(results []AlgoResult) *texttable.Table {
	return renderAlgoResults(results, "Figure 2(a): Solutions found (%), k=5",
		func(r AlgoResult) string { return texttable.Pct(r.SolvedFrac) }, true)
}

// RenderFigure2b formats the diameter bars of Figure 2(b).
func RenderFigure2b(results []AlgoResult) *texttable.Table {
	return renderAlgoResults(results, "Figure 2(b): Team diameter, k=5",
		func(r AlgoResult) string { return texttable.F2(r.AvgDiameter) }, false)
}

func renderAlgoResults(results []AlgoResult, title string, pick func(AlgoResult) string, includeMax bool) *texttable.Table {
	algos := []string{AlgoLCMD, AlgoLCMC, AlgoRandom}
	if includeMax {
		algos = append(algos, AlgoMax)
	}
	headers := append([]string{"relation"}, algos...)
	t := texttable.New(headers...).SetTitle(title)
	byRel := map[compat.Kind]map[string]AlgoResult{}
	for _, r := range results {
		if byRel[r.Relation] == nil {
			byRel[r.Relation] = map[string]AlgoResult{}
		}
		byRel[r.Relation][r.Algorithm] = r
	}
	for _, k := range TeamRelations() {
		group, ok := byRel[k]
		if !ok {
			continue
		}
		cells := []string{k.String()}
		for _, algo := range algos {
			if r, ok := group[algo]; ok {
				cells = append(cells, pick(r))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// RenderFigure2c formats the task-size sweep of Figure 2(c).
func RenderFigure2c(results []TaskSizeResult) *texttable.Table {
	return renderTaskSize(results, "Figure 2(c): Solutions found (%) vs task size (LCMD)",
		func(r TaskSizeResult) string { return texttable.Pct(r.SolvedFrac) })
}

// RenderFigure2d formats the task-size sweep of Figure 2(d).
func RenderFigure2d(results []TaskSizeResult) *texttable.Table {
	return renderTaskSize(results, "Figure 2(d): Team diameter vs task size (LCMD)",
		func(r TaskSizeResult) string { return texttable.F2(r.AvgDiameter) })
}

func renderTaskSize(results []TaskSizeResult, title string, pick func(TaskSizeResult) string) *texttable.Table {
	sizeSet := map[int]bool{}
	for _, r := range results {
		sizeSet[r.TaskSize] = true
	}
	var sizes []int
	for s := range sizeSet {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	headers := []string{"relation"}
	for _, s := range sizes {
		headers = append(headers, fmt.Sprintf("k=%d", s))
	}
	t := texttable.New(headers...).SetTitle(title)
	byRel := map[compat.Kind]map[int]TaskSizeResult{}
	for _, r := range results {
		if byRel[r.Relation] == nil {
			byRel[r.Relation] = map[int]TaskSizeResult{}
		}
		byRel[r.Relation][r.TaskSize] = r
	}
	for _, k := range TeamRelations() {
		group, ok := byRel[k]
		if !ok {
			continue
		}
		cells := []string{k.String()}
		for _, s := range sizes {
			if r, ok := group[s]; ok {
				cells = append(cells, pick(r))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// RenderSeries formats a repeated-run metric map as "key  mean ± std"
// rows in stable key order.
func RenderSeries(title string, m map[string]Series) *texttable.Table {
	t := texttable.New("metric", "mean ± std", "reps").SetTitle(title)
	for _, key := range SortedKeys(m) {
		s := m[key]
		t.AddRow(key, s.String(), fmt.Sprintf("%d", s.N))
	}
	return t
}

// RenderPolicyGrid formats the policy ablation.
func RenderPolicyGrid(results []PolicyResult) *texttable.Table {
	t := texttable.New("skill policy", "user policy", "relation", "solved %", "avg diameter").
		SetTitle("Policy ablation: Algorithm 2 skill × user selection")
	for _, r := range results {
		t.AddRow(r.Skill.String(), r.User.String(), r.Relation.String(),
			texttable.Pct(r.SolvedFrac), texttable.F2(r.AvgDiameter))
	}
	return t
}
