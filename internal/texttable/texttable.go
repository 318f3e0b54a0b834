// Package texttable renders small aligned tables as plain text or
// Markdown — just enough for the experiment harness and CLIs to print
// the paper's tables legibly without external dependencies.
package texttable

import (
	"fmt"
	"strings"
)

// Table accumulates rows under a fixed header.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// New returns a table with the given column headers.
func New(headers ...string) *Table {
	return &Table{headers: append([]string(nil), headers...)}
}

// SetTitle attaches a title printed above the table.
func (t *Table) SetTitle(title string) *Table {
	t.title = title
	return t
}

// AddRow appends a row; missing cells render empty, extra cells are an
// error surfaced by String to keep call sites honest.
func (t *Table) AddRow(cells ...string) *Table {
	t.rows = append(t.rows, append([]string(nil), cells...))
	return t
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	widths := t.widths()
	writeRow := func(cells []string) {
		for c := range widths {
			if c > 0 {
				b.WriteString("  ")
			}
			cell := ""
			if c < len(cells) {
				cell = cells[c]
			}
			fmt.Fprintf(&b, "%-*s", widths[c], cell)
		}
		// Trim the padding of the last column.
		s := b.String()
		trimmed := strings.TrimRight(s, " ")
		b.Reset()
		b.WriteString(trimmed)
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for c := range sep {
		sep[c] = strings.Repeat("-", widths[c])
	}
	writeRow(sep)
	for _, row := range t.rows {
		if len(row) > len(t.headers) {
			fmt.Fprintf(&b, "!! row has %d cells for %d columns\n", len(row), len(t.headers))
			continue
		}
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured Markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.title)
	}
	b.WriteString("| " + strings.Join(t.headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.headers)) + "\n")
	for _, row := range t.rows {
		cells := make([]string, len(t.headers))
		copy(cells, row)
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	return b.String()
}

func (t *Table) widths() []int {
	widths := make([]int, len(t.headers))
	for c, h := range t.headers {
		widths[c] = len(h)
	}
	for _, row := range t.rows {
		for c, cell := range row {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	return widths
}

// Pct formats a fraction as a percentage with two decimals, e.g.
// 0.4472 → "44.72".
func Pct(fraction float64) string { return fmt.Sprintf("%.2f", 100*fraction) }

// F2 formats a float with two decimals.
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }
