package report

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"bubblezero/internal/experiments"
	"bubblezero/internal/trace"
)

var t0 = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)

func seriesFrom(t *testing.T, values []float64) *trace.Series {
	t.Helper()
	s := trace.NewRecorder().Series("test")
	for i, v := range values {
		if err := s.Append(t0.Add(time.Duration(i)*time.Minute), v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestChartBasicShape(t *testing.T) {
	s := seriesFrom(t, []float64{28.9, 28, 27, 26, 25.2, 25, 25, 25})
	out := Chart(s, 40, 8)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 10 { // 8 rows + axis + label
		t.Fatalf("chart has %d lines, want 10:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "28.90") {
		t.Errorf("top row missing max annotation: %q", lines[0])
	}
	if !strings.Contains(lines[7], "25.00") {
		t.Errorf("bottom row missing min annotation: %q", lines[7])
	}
	if !strings.Contains(out, "*") {
		t.Error("chart has no data marks")
	}
	// Descending series: the first column's mark must be above the last's.
	firstRow, lastRow := -1, -1
	for r := 0; r < 8; r++ {
		body := lines[r][10:]
		if idx := strings.IndexByte(body, '*'); idx >= 0 {
			if firstRow == -1 && strings.HasPrefix(strings.TrimLeft(body, " "), "*") && idx < 5 {
				firstRow = r
			}
			if strings.LastIndexByte(body, '*') >= len(body)-3 {
				lastRow = r
			}
		}
	}
	if firstRow == -1 || lastRow == -1 || firstRow >= lastRow {
		t.Errorf("descending series should slope down (first mark row %d, last %d):\n%s",
			firstRow, lastRow, out)
	}
}

func TestChartDegenerate(t *testing.T) {
	empty := trace.NewRecorder().Series("empty")
	if out := Chart(empty, 40, 8); !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
	s := seriesFrom(t, []float64{1, 2})
	if out := Chart(s, 1, 8); !strings.Contains(out, "no data") {
		t.Errorf("too-narrow chart = %q", out)
	}
	// Constant series must not divide by zero.
	flat := seriesFrom(t, []float64{5, 5, 5})
	if out := Chart(flat, 20, 4); !strings.Contains(out, "*") {
		t.Errorf("flat chart missing marks:\n%s", out)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"AirCon", "BubbleZERO"}, []float64{2.8, 4.07}, 40)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if strings.Count(lines[0], "#") >= strings.Count(lines[1], "#") {
		t.Error("larger value should have the longer bar")
	}
	if !strings.Contains(lines[1], "4.07") {
		t.Errorf("value annotation missing: %q", lines[1])
	}
	if out := BarChart([]string{"a"}, []float64{1, 2}, 40); !strings.Contains(out, "no data") {
		t.Error("mismatched lengths should render no data")
	}
}

func TestCDFChart(t *testing.T) {
	out := CDFChart([]float64{2, 64}, []float64{0.2, 1}, 40)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if strings.Count(lines[1], "#") != 40 {
		t.Errorf("p=1 row should be full width: %q", lines[1])
	}
	if out := CDFChart(nil, nil, 40); !strings.Contains(out, "no data") {
		t.Error("empty CDF should render no data")
	}
}

func TestGenerateFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation")
	}
	suite := experiments.NewSuite(runtime.NumCPU())
	scenarioRunsBefore := experiments.NetScenarioRunCount()
	var sb strings.Builder
	if err := GenerateWith(context.Background(), suite, 1, 1.5, &sb); err != nil {
		t.Fatal(err)
	}
	// Figures 12–15 all consume the networking scenario; the suite must
	// simulate it exactly once per (seed, duration).
	if runs := experiments.NetScenarioRunCount() - scenarioRunsBefore; runs != 1 {
		t.Errorf("report simulated the net scenario %d times, want exactly 1", runs)
	}
	out := sb.String()
	for _, want := range []string{
		"# BubbleZERO", "Figure 10", "Figure 11", "Figure 12",
		"Figure 13", "Figure 14", "Figure 15", "Exergy audit", "Ablations",
		"AirCon", "time →",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 3000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestGenerateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	if err := GenerateWith(ctx, experiments.NewSuite(1), 1, 1, &sb); err == nil {
		t.Error("cancelled generation should fail")
	}
}
