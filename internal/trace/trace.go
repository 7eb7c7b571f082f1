// Package trace records per-iteration time series from experiment runs and
// renders them as CSV (for plotting) or quick ASCII charts (for the cmd
// tools' terminal output).
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named time series.
type Series struct {
	Name   string
	Values []float64
}

// Set is a collection of aligned series (same x axis).
type Set struct {
	XName  string
	Series []*Series
}

// NewSet creates a trace set with the given x-axis label.
func NewSet(xName string) *Set { return &Set{XName: xName} }

// Add creates and registers a new series.
func (s *Set) Add(name string) *Series {
	ser := &Series{Name: name}
	s.Series = append(s.Series, ser)
	return ser
}

// Len returns the longest series length.
func (s *Set) Len() int {
	n := 0
	for _, ser := range s.Series {
		if len(ser.Values) > n {
			n = len(ser.Values)
		}
	}
	return n
}

// WriteCSV emits the set as CSV with the x axis in the first column.
func (s *Set) WriteCSV(w io.Writer) error {
	cols := make([]string, 0, len(s.Series)+1)
	cols = append(cols, s.XName)
	for _, ser := range s.Series {
		cols = append(cols, ser.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i := 0; i < s.Len(); i++ {
		row := make([]string, 0, len(cols))
		row = append(row, fmt.Sprintf("%d", i))
		for _, ser := range s.Series {
			if i < len(ser.Values) {
				row = append(row, fmt.Sprintf("%g", ser.Values[i]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// ASCIIChart renders a series as a fixed-size ASCII chart with min/max
// annotations — enough to eyeball convergence in a terminal.
func ASCIIChart(ser *Series, width, height int) string {
	if len(ser.Values) == 0 || width < 2 || height < 2 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range ser.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) {
		return ""
	}
	// A constant series would divide by zero in the row projection below;
	// widen the projection range only — the annotation keeps the true
	// [lo .. hi] so a flatline reads as the level it actually held.
	trueLo, trueHi := lo, hi
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	n := len(ser.Values)
	for c := 0; c < width; c++ {
		// Downsample by averaging the bucket.
		start := c * n / width
		end := (c + 1) * n / width
		if end <= start {
			end = start + 1
		}
		if end > n {
			end = n
		}
		var sum float64
		var cnt int
		for i := start; i < end; i++ {
			v := ser.Values[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			sum += v
			cnt++
		}
		if cnt == 0 {
			continue
		}
		v := sum / float64(cnt)
		row := int((hi - v) / (hi - lo) * float64(height-1))
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		grid[row][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%.4g .. %.4g]\n", ser.Name, trueLo, trueHi)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	return b.String()
}
