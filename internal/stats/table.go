package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table renders aligned ASCII tables for the experiment binaries. Rows
// are added as strings; numeric formatting is the caller's concern.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Row appends a row; missing cells render empty, extra cells widen the
// table.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Write renders the table to w.
func (t *Table) Write(w io.Writer) error {
	nCols := len(t.header)
	for _, r := range t.rows {
		if len(r) > nCols {
			nCols = len(r)
		}
	}
	widths := make([]int, nCols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	writeRow := func(r []string) error {
		var sb strings.Builder
		for i := 0; i < nCols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			// Left-align the first column (names), right-align the rest
			// (numbers), matching the paper's table layout.
			if i == 0 {
				sb.WriteString(cell)
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			} else {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
				sb.WriteString(cell)
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if len(t.header) > 0 {
		if err := writeRow(t.header); err != nil {
			return err
		}
		total := 0
		for _, w := range widths {
			total += w
		}
		total += 2 * (nCols - 1)
		if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
			return err
		}
	}
	for _, r := range t.rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Write(&sb)
	return sb.String()
}

// Series renders an (x, y...) numeric series as tab-separated lines with
// a header, the format used for the figure harnesses.
type Series struct {
	header []string
	rows   [][]float64
}

// NewSeries returns a series with the given column names.
func NewSeries(header ...string) *Series { return &Series{header: header} }

// Add appends one sample row.
func (s *Series) Add(vals ...float64) { s.rows = append(s.rows, vals) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.rows) }

// Write renders the series as TSV.
func (s *Series) Write(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(s.header, "\t")); err != nil {
		return err
	}
	for _, r := range s.rows {
		parts := make([]string, len(r))
		for i, v := range r {
			if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
				parts[i] = fmt.Sprintf("%d", int64(v))
			} else {
				parts[i] = fmt.Sprintf("%.4g", v)
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// String renders the series.
func (s *Series) String() string {
	var sb strings.Builder
	_ = s.Write(&sb)
	return sb.String()
}
