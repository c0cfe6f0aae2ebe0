// Package report renders experiment results as a self-contained markdown
// report with ASCII charts — the repository's equivalent of the paper's
// figure pages, regenerable with one command
// (cmd/experiments -report report.md).
package report

import (
	"fmt"
	"math"
	"strings"

	"bubblezero/internal/trace"
)

// Chart renders a time series as an ASCII line chart of the given width
// (columns) and height (rows). The series is resampled column-wise by
// averaging; the y-axis is annotated with the min and max.
func Chart(s *trace.Series, width, height int) string {
	pts := s.Points()
	if len(pts) == 0 || width < 2 || height < 2 {
		return "(no data)\n"
	}

	// Column-wise resample.
	cols := make([]float64, width)
	counts := make([]int, width)
	t0 := pts[0].At
	span := pts[len(pts)-1].At.Sub(t0).Seconds()
	if span <= 0 {
		span = 1
	}
	for _, p := range pts {
		c := int(p.At.Sub(t0).Seconds() / span * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		cols[c] += p.Value
		counts[c]++
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	last := pts[0].Value
	for c := range cols {
		if counts[c] > 0 {
			cols[c] /= float64(counts[c])
			last = cols[c]
		} else {
			cols[c] = last // carry forward across empty columns
		}
		if cols[c] < lo {
			lo = cols[c]
		}
		if cols[c] > hi {
			hi = cols[c]
		}
	}
	//bzlint:allow floateq flat-range guard: equal bounds would divide by zero when scaling rows
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c, v := range cols {
		r := int((hi - v) / (hi - lo) * float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		grid[r][c] = '*'
	}

	var b strings.Builder
	for r, row := range grid {
		switch r {
		case 0:
			fmt.Fprintf(&b, "%8.2f |%s\n", hi, string(row))
		case height - 1:
			fmt.Fprintf(&b, "%8.2f |%s\n", lo, string(row))
		default:
			fmt.Fprintf(&b, "         |%s\n", string(row))
		}
	}
	fmt.Fprintf(&b, "          %s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "          %-*s%s\n", width-8, s.Name(), "time →")
	return b.String()
}

// BarChart renders label/value pairs as horizontal bars scaled to the
// largest value.
func BarChart(labels []string, values []float64, width int) string {
	if len(labels) != len(values) || len(labels) == 0 || width < 2 {
		return "(no data)\n"
	}
	maxV := math.Inf(-1)
	maxLabel := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	var b strings.Builder
	for i, v := range values {
		n := int(v / maxV * float64(width))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%-*s | %s %.2f\n", maxLabel, labels[i], strings.Repeat("#", n), v)
	}
	return b.String()
}

// CDFChart renders an empirical CDF as rows of cumulative probability.
func CDFChart(xs, ps []float64, width int) string {
	if len(xs) == 0 || len(xs) != len(ps) || width < 2 {
		return "(no data)\n"
	}
	var b strings.Builder
	for i := range xs {
		n := int(ps[i] * float64(width))
		fmt.Fprintf(&b, "%7.0fs | %s %.2f\n", xs[i], strings.Repeat("#", n), ps[i])
	}
	return b.String()
}
