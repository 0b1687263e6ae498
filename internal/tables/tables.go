// Package tables renders the experiment results as aligned text tables, the
// format cmd/cliquebench prints, with
// optional markdown and JSON renderings (the latter feeds the CI benchmark
// artifact).
package tables

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table with a caption.
type Table struct {
	Caption string     `json:"caption"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
}

// New creates a table with the given caption and column headers.
func New(caption string, header ...string) *Table {
	return &Table{Caption: caption, Header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = fmt.Sprintf("%v", v)
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}

	var b strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			fmt.Fprintf(&b, "  %-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Document is a JSON-serialisable bundle of tables plus provenance, the
// schema of the benchmark artifacts uploaded by CI (BENCH_ci.json).
type Document struct {
	// Tool identifies the producer (e.g. "cliquebench").
	Tool string `json:"tool"`
	// Args records the relevant producer configuration (flag values).
	Args map[string]string `json:"args,omitempty"`
	// Tables holds every emitted table in emission order.
	Tables []*Table `json:"tables"`
}

// JSON renders the document as indented JSON.
func (d *Document) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Caption)
	}
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}
