// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII–VIII). Each figure has a runner returning a Table; the
// Registry lists them for `esthera run` and EXPERIMENTS.md records
// paper-vs-measured.
//
// Figures 3–5 are performance artifacts: the pipeline's instrumented
// kernels supply work counts, and the platform cost model (internal/
// platform) converts them into per-platform predictions, alongside
// measured Go wall times on the host. Figures 6–9 are accuracy artifacts
// measured directly. Experiment sizes default to reduced budgets suitable
// for CI; `esthera run -full -runs 100 -steps 100` selects paper scale.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry caveats (e.g. reduced run budgets) into the output.
	Notes []string
}

// Append adds a row, formatting each cell with %v.
func (t *Table) Append(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV emits the table as CSV (header first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}
