package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Report is one experiment's output: a title, rows of cells and a note.
// Each cell names its CSV column and record metric once, so the three
// views below — Text, CSV and Records — cannot drift apart.
type Report struct {
	// Experiment is the experiment field of the report's bench records.
	Experiment string
	// Title is the text above the table. A pivoted figure, whose text is
	// not one row per data row, puts its whole text here over rows that
	// have no text columns.
	Title string
	// Note is the text below the table.
	Note string
	Rows []Row
	// Derived are the records no single row holds, such as a gain
	// computed across rows. Records lists them after the rows' own.
	Derived []BenchRecord
}

// Row is one row of a report.
type Row struct {
	// Name is the row's bench-record name; a row without one has no
	// record.
	Name  string
	Cells []Cell
}

// Cell is one value of a row.
type Cell struct {
	// Name is the cell's CSV column and, when Value is a number, its
	// record metric. A cell without one is text only.
	Name string
	// Header is the cell's text column. A cell without one stays out of
	// the text, and a row with no such cell is not a text row.
	Header string
	// Format renders Value in the text; "" means "%v".
	Format string
	// Value is a string, an int, an int64 or a float64. The CSV holds a
	// number as the float64 its record holds, in shortest form.
	Value any
}

// Text renders the title, a table of the cells that have a header, one
// row per text row, and the note.
func (r *Report) Text() string {
	s := r.Title
	if headers := r.columns(func(c Cell) string { return c.Header }); len(headers) > 0 {
		t := newTable(headers...)
		for _, row := range r.Rows {
			cells := make([]string, len(headers))
			text := false
			for _, c := range row.Cells {
				if c.Header == "" {
					continue
				}
				format := c.Format
				if format == "" {
					format = "%v"
				}
				cells[slices.Index(headers, c.Header)] = fmt.Sprintf(format, c.Value)
				text = true
			}
			if text {
				t.add(cells...)
			}
		}
		s += "\n" + t.String()
	}
	if r.Note != "" {
		s += "\n" + r.Note
	}
	return s
}

// CSV writes one column per cell name, in the order the names first
// appear, and one line per row; a row leaves the columns it lacks empty.
func (r *Report) CSV(w io.Writer) error {
	names := r.columns(func(c Cell) string { return c.Name })
	lines := [][]string{names}
	for _, row := range r.Rows {
		line := make([]string, len(names))
		for _, c := range row.Cells {
			if c.Name == "" {
				continue
			}
			if v, ok := number(c.Value); ok {
				line[slices.Index(names, c.Name)] = strconv.FormatFloat(v, 'f', -1, 64)
			} else {
				line[slices.Index(names, c.Name)] = fmt.Sprint(c.Value)
			}
		}
		lines = append(lines, line)
	}
	return csv.NewWriter(w).WriteAll(lines)
}

// Records returns one record per named row, holding its named numeric
// cells, followed by the derived records.
func (r *Report) Records() []BenchRecord {
	var recs []BenchRecord
	for _, row := range r.Rows {
		if row.Name == "" {
			continue
		}
		m := map[string]float64{}
		for _, c := range row.Cells {
			if v, ok := number(c.Value); ok && c.Name != "" {
				m[c.Name] = v
			}
		}
		recs = append(recs, BenchRecord{Experiment: r.Experiment, Name: row.Name, Metrics: m})
	}
	return append(recs, r.Derived...)
}

// columns lists the distinct non-empty keys of the report's cells, in
// the order they first appear.
func (r *Report) columns(key func(Cell) string) []string {
	var cols []string
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			if k := key(c); k != "" && !slices.Contains(cols, k) {
				cols = append(cols, k)
			}
		}
	}
	return cols
}

// number returns a numeric cell value as a float64.
func number(v any) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	}
	return 0, false
}
