package trace

import (
	"math"
	"strings"
	"testing"
)

func TestCSVOutput(t *testing.T) {
	set := NewSet("iter")
	a := set.Add("energy")
	b := set.Add("accuracy")
	a.Values = append(a.Values, 1.5)
	a.Values = append(a.Values, 2.5)
	b.Values = append(b.Values, 0.9)
	var sb strings.Builder
	if err := set.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "iter,energy,accuracy" {
		t.Fatalf("header: %q", lines[0])
	}
	if lines[1] != "0,1.5,0.9" {
		t.Fatalf("row 0: %q", lines[1])
	}
	if lines[2] != "1,2.5," {
		t.Fatalf("row 1 (ragged): %q", lines[2])
	}
	if set.Len() != 2 {
		t.Fatalf("len: %d", set.Len())
	}
}

func TestASCIIChartRendersShape(t *testing.T) {
	ser := &Series{Name: "ramp"}
	for i := 0; i < 100; i++ {
		ser.Values = append(ser.Values, float64(i))
	}
	out := ASCIIChart(ser, 40, 8)
	if out == "" {
		t.Fatal("empty chart")
	}
	if !strings.Contains(out, "ramp") || !strings.Contains(out, "*") {
		t.Fatalf("chart missing elements:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 { // title + 8 rows + axis
		t.Fatalf("chart rows: %d", len(lines))
	}
	// A ramp should place early stars low and late stars high. (Bucket
	// averaging can leave the extreme rows unused, so compare the top row
	// against the lowest row that has a star.)
	topRow := lines[1]
	bottomRow := ""
	for i := 8; i > 1; i-- {
		if strings.Contains(lines[i], "*") {
			bottomRow = lines[i]
			break
		}
	}
	if !strings.Contains(topRow, "*") || bottomRow == "" {
		t.Fatalf("ramp should span rows:\n%s", out)
	}
	if strings.Index(topRow, "*") < strings.Index(bottomRow, "*") {
		t.Fatalf("ramp orientation wrong:\n%s", out)
	}
}

func TestASCIIChartDegenerate(t *testing.T) {
	if ASCIIChart(&Series{Name: "empty"}, 10, 5) != "" {
		t.Fatal("empty series should render nothing")
	}
	flat := &Series{Name: "flat", Values: []float64{2, 2, 2}}
	if out := ASCIIChart(flat, 10, 4); out == "" {
		t.Fatal("flat series should still render")
	}
	nan := &Series{Name: "nan", Values: []float64{math.NaN(), math.Inf(1)}}
	if out := ASCIIChart(nan, 10, 4); out != "" {
		t.Fatal("all-invalid series should render nothing")
	}
	if ASCIIChart(flat, 1, 1) != "" {
		t.Fatal("tiny canvas should render nothing")
	}
}

// TestASCIIChartConstantSeriesRegression pins the guard for a constant
// series: hi == lo would make the row projection divide by zero, so the
// chart widens the range by one and must still draw every bucket's star
// on a single row with the true value in the annotation.
func TestASCIIChartConstantSeriesRegression(t *testing.T) {
	ser := &Series{Name: "flatline", Values: []float64{3.5, 3.5, 3.5, 3.5, 3.5, 3.5}}
	out := ASCIIChart(ser, 12, 5)
	if out == "" {
		t.Fatal("constant series must render")
	}
	if !strings.Contains(out, "[3.5 .. 3.5]") {
		t.Fatalf("annotation should show the constant level:\n%s", out)
	}
	starRows := 0
	for _, line := range strings.Split(out, "\n") {
		if n := strings.Count(line, "*"); n > 0 {
			starRows++
			if n != 12 {
				t.Fatalf("constant series should fill its row (%d stars):\n%s", n, out)
			}
		}
	}
	if starRows != 1 {
		t.Fatalf("constant series should occupy exactly one row, got %d:\n%s", starRows, out)
	}
}

// TestASCIIChartSparseNaNRegression pins the guard for a series where
// whole downsample buckets are non-finite: those columns stay blank,
// finite columns still render, and the annotated range ignores the
// non-finite values entirely.
func TestASCIIChartSparseNaNRegression(t *testing.T) {
	ser := &Series{Name: "holey"}
	for i := 0; i < 40; i++ {
		if i/10%2 == 0 {
			ser.Values = append(ser.Values, math.NaN())
		} else {
			ser.Values = append(ser.Values, float64(i))
		}
	}
	out := ASCIIChart(ser, 8, 4)
	if out == "" {
		t.Fatal("series with finite values must render")
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("finite buckets should draw stars:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Fatalf("NaN must not leak into the chart:\n%s", out)
	}
	if !strings.Contains(out, "[10 .. 39]") {
		t.Fatalf("range should cover only finite samples:\n%s", out)
	}
}
