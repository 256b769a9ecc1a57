// Package report renders the aligned text tables used by the experiment
// binaries and EXPERIMENTS.md: one Table per paper table/figure. It also
// holds the JSON string encoder shared by the record encoders that append
// their JSON without reflection.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row. Short rows are padded with empty cells.
func (t *Table) Add(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Addf appends a row of formatted cells: each argument is rendered with %v.
func (t *Table) Addf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Add(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Count renders "n (p%)" against a total, the format the paper's tables use.
func Count(n, total int) string {
	if total == 0 {
		return fmt.Sprintf("%d", n)
	}
	return fmt.Sprintf("%d (%.1f%%)", n, 100*float64(n)/float64(total))
}

// Pct renders a bare percentage.
func Pct(n, total int) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

// Mark renders booleans as the check/cross marks the paper uses.
func Mark(ok bool) string {
	if ok {
		return "Y"
	}
	return "x"
}
