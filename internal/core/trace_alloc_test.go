package core

import (
	"context"
	"testing"
	"time"
)

// TestRecordTraceZeroAlloc pins the trace hot path: once the series
// handles are open and each series' chunk has room, recording a tick
// performs no allocations — no name formatting, no map lookups, no slice
// growth.
func TestRecordTraceZeroAlloc(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A short run populates the COP accumulators so both conditional
	// series record, covering every branch of the hot path.
	if err := sys.Run(context.Background(), 10*time.Minute); err != nil {
		t.Fatal(err)
	}

	// The run opened every series' first 8,192-point chunk; its 40-odd
	// samples plus the measured calls (and AllocsPerRun's warm-up call)
	// fit in that chunk, so no append below allocates one.
	const runs = 1000
	now := sys.Now()
	allocs := testing.AllocsPerRun(runs, func() {
		now = now.Add(time.Second)
		sys.recordTrace(now)
	})
	if allocs != 0 {
		t.Errorf("recordTrace allocates %.2f/op, want 0", allocs)
	}
}

// TestTraceSeriesOpenedUpFront verifies the handles cover exactly the
// series the recorder traces, in the historical name order.
func TestTraceSeriesOpenedUpFront(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"temp.subsp1", "dew.subsp1", "co2.subsp1",
		"temp.subsp2", "dew.subsp2", "co2.subsp2",
		"temp.subsp3", "dew.subsp3", "co2.subsp3",
		"temp.subsp4", "dew.subsp4", "co2.subsp4",
		"temp.outdoor", "dew.outdoor", "temp.avg", "dew.avg",
		"tank.radiant", "tank.vent", "cop.total", "cop.radiant", "cop.vent",
	}
	got := sys.Recorder().Names()
	if len(got) != len(want) {
		t.Fatalf("recorder has %d series, want %d: %v", len(got), len(want), got)
	}
	if TracedSeries != len(want) {
		t.Errorf("TracedSeries = %d, want %d", TracedSeries, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("series[%d] = %q, want %q", i, got[i], want[i])
		}
	}

	// Tracing disabled: the recorder stays empty, as before.
	cfg := DefaultConfig()
	cfg.TracePeriod = 0
	quiet, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(quiet.Recorder().Names()); n != 0 {
		t.Errorf("untraced system opened %d series, want 0", n)
	}
}
