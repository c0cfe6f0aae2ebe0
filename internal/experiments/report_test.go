package experiments_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	"bubblezero/internal/experiments"
	"bubblezero/internal/report"
)

// TestReportSimulatesScenarioOnce pins the report's use of the suite:
// Figures 12–15 all consume the networking scenario, and a report must
// simulate it exactly once per (seed, duration), so its suite retains
// exactly one.
func TestReportSimulatesScenarioOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation")
	}
	suite := experiments.NewSuite(runtime.NumCPU())
	if err := report.GenerateWith(context.Background(), suite, 1, 1.5, io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := experiments.CachedScenarios(suite); n != 1 {
		t.Errorf("report simulated %d net scenarios, want exactly 1", n)
	}
}
