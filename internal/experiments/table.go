// Package experiments implements the reproduction experiments E1–E14: one
// per theorem/lemma/figure of the paper (PAPER.md). Each experiment
// returns a Table whose rows are the series the paper's claim is about
// (measured rounds or ratios next to the claimed asymptotic reference and
// the prior-work baselines). The cmd/kecss-bench binary prints them; the
// root bench_test.go wraps each in a testing.B benchmark.
//
// Every experiment's independent trials run on a service.Pool sized by
// Scale.Workers (see runTrials): trials are index-addressed, derive their
// randomness from fixed per-trial seeds, and append their rows in trial
// order, so a table is byte-identical at any worker count while the wall
// clock scales with the host's cores.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output: a titled grid of stringified cells.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row, stringifying each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}
