// Package experiments contains one harness per table/figure in the
// Punica paper's evaluation (§7). Each harness runs the corresponding
// workload on the simulated substrate and returns typed rows. A Report
// renders them as paper-style text, CSV and bench records; the
// text-only experiments keep a Format function instead.
// cmd/punica-bench and the repository-root benchmarks call into it, and
// EXPERIMENTS.md records paper-vs-measured values produced by these
// functions.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Batches1to32 is the batch-size sweep of Fig. 1 and Fig. 10.
var Batches1to32 = []int{1, 2, 4, 8, 16, 32}

// Batches1to64 is the batch-size sweep of the microbenchmarks
// (Fig. 7–9).
var Batches1to64 = []int{1, 2, 4, 8, 16, 32, 48, 64}

// table is a small text-table builder used by Report.Text and the
// Format helpers.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// micros is d in microseconds, the unit of the microbenchmarks' CSV
// columns.
func micros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", micros(d))
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
}
