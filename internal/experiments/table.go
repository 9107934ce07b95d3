package experiments

import (
	"fmt"
	"strings"

	"pipetune/internal/core"
)

// Table is a renderable text table: the harness' common output format for
// every figure and table regenerator.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes are printed under the rows, one line each.
	Notes []string
}

// Render produces an aligned plain-text rendering.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		b.WriteString(note)
		b.WriteByte('\n')
	}
	return b.String()
}

// epochsNote says where one PipeTune job's epochs went, from its
// controller's counts.
func epochsNote(job string, c core.Counts) string {
	return fmt.Sprintf("%s PipeTune: %d trials, %d inheriting (%d cost twins); epochs: %d profile, %d probe, %d applied; ground truth: %d lookups, %d hits",
		job, c.Trials, c.Inheriting, c.CostTwins, c.ProfileEpochs, c.ProbeEpochs, c.AppliedEpochs, c.Lookups, c.Hits)
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// d formats an int.
func d(v int) string { return fmt.Sprintf("%d", v) }
