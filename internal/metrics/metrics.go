// Package metrics provides the small statistics and table-formatting
// utilities the experiment harness uses: streaming summaries,
// percentiles over collected samples, and fixed-width result tables
// that mirror the rows/series the paper reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates streaming count/mean/max statistics without
// retaining samples.
type Summary struct {
	n   int
	sum float64
	max float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sum += x
}

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max returns the largest sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Samples retains values for percentile queries.
type Samples struct {
	xs     []float64
	sorted bool
}

// Add appends a sample. NaN samples are dropped: a NaN would poison
// the sort order and make every later Percentile answer depend on
// where it landed.
func (p *Samples) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	p.xs = append(p.xs, x)
	p.sorted = false
}

// Percentile returns the q-th percentile (0 <= q <= 100) by nearest-
// rank; 0 when empty.
func (p *Samples) Percentile(q float64) float64 {
	if len(p.xs) == 0 {
		return 0
	}
	if !p.sorted {
		sort.Float64s(p.xs)
		p.sorted = true
	}
	if q <= 0 {
		return p.xs[0]
	}
	if q >= 100 {
		return p.xs[len(p.xs)-1]
	}
	rank := int(math.Ceil(q/100*float64(len(p.xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return p.xs[rank]
}

// Mean returns the sample mean.
func (p *Samples) Mean() float64 {
	if len(p.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range p.xs {
		sum += x
	}
	return sum / float64(len(p.xs))
}

// Max returns the largest sample (0 when empty).
func (p *Samples) Max() float64 { return p.Percentile(100) }

// Table formats experiment output as an aligned fixed-width table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
