// Package report renders the PSP framework's outputs as plain-text
// tables and charts: the regenerated figures and tables of the paper in
// a terminal-friendly form.
package report

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table is a simple text table with a header row.
type Table struct {
	// Title is printed above the table when non-empty.
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells and long
// rows are truncated to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render draws the table.
func (t *Table) Render() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if w := utf8.RuneCountInString(c); w > widths[i] {
				widths[i] = w
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteByte('\n')
	}
	sep := func() {
		b.WriteString("+")
		for _, w := range widths {
			b.WriteString(strings.Repeat("-", w+2))
			b.WriteString("+")
		}
		b.WriteByte('\n')
	}
	sep()
	writeRow(t.headers)
	sep()
	for _, row := range t.rows {
		writeRow(row)
	}
	sep()
	return b.String()
}
