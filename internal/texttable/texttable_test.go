package texttable

import (
	"strings"
	"testing"
)

func TestStringAlignment(t *testing.T) {
	tbl := New("name", "value").
		AddRow("a", "1").
		AddRow("longer", "22")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "------") {
		t.Fatalf("separator line = %q", lines[1])
	}
	// Columns aligned: "value" column starts at the same offset.
	off0 := strings.Index(lines[0], "value")
	off3 := strings.Index(lines[3], "22")
	if off0 != off3 {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTitleAndNumRows(t *testing.T) {
	tbl := New("x").SetTitle("Table 1").AddRow("1").AddRow("2")
	if got := strings.Count(tbl.String(), "\n"); got != 5 {
		t.Fatalf("%d lines, want title, header, rule and 2 rows:\n%s", got, tbl.String())
	}
	if !strings.HasPrefix(tbl.String(), "Table 1\n") {
		t.Fatalf("missing title:\n%s", tbl.String())
	}
}

func TestShortAndLongRows(t *testing.T) {
	tbl := New("a", "b").AddRow("only")
	if !strings.Contains(tbl.String(), "only") {
		t.Fatal("short row lost")
	}
	tbl2 := New("a").AddRow("1", "2")
	if !strings.Contains(tbl2.String(), "!!") {
		t.Fatal("oversized row not flagged")
	}
}

func TestMarkdown(t *testing.T) {
	md := New("a", "b").SetTitle("T").AddRow("1", "2").Markdown()
	want := []string{"**T**", "| a | b |", "|---|---|", "| 1 | 2 |"}
	for _, w := range want {
		if !strings.Contains(md, w) {
			t.Fatalf("markdown missing %q:\n%s", w, md)
		}
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.4472) != "44.72" {
		t.Fatalf("Pct = %q", Pct(0.4472))
	}
	if F2(3.456) != "3.46" {
		t.Fatalf("F2 = %q", F2(3.456))
	}
}
