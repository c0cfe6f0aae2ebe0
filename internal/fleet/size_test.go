package fleet

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"bubblezero/internal/core"
	"bubblezero/internal/trace"
)

// measuredBytesPerBuilding builds cfg and returns its GC-settled live-heap
// growth per building: HeapAlloc after a full collection, taken before
// and after New, over the building count.
func measuredBytesPerBuilding(t *testing.T, cfg Config) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fl, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(fl)
	return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(cfg.Buildings)
}

// TestBytesPerBuildingMatchesHeap pins the computed size's constants
// against the heap 64 buildings really take, in each storage mode a
// sampled building can have. The 2% tolerance is about 790 B of an
// untraced building; the race detector's build has measured up to 1.7%
// above the plain one. A change that grows every building by more fails
// here, and buildingBytes or tracedBytes is re-measured with it.
func TestBytesPerBuildingMatchesHeap(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the constants are a 64-bit host's sizes")
	}
	const tolerance = 0.02
	for _, tc := range []struct {
		name                   string
		sampleEvery, retention int
	}{
		{"untraced", 0, 0},
		{"ring", 1, 960},
		{"unbounded", 1, 0},
		{"every fourth in a ring", 4, 960},
		{"every fourth in a page-sized ring", 4, 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(64)
			cfg.Shards = 2
			cfg.MemBudgetBytes = 0
			cfg.SampleEvery = tc.sampleEvery
			cfg.SampleRetention = tc.retention
			want := cfg.BytesPerBuilding()
			got := measuredBytesPerBuilding(t, cfg)
			t.Logf("computed %d B/building, measured %d", want, got)
			if d := math.Abs(float64(got - want)); d > tolerance*float64(want) {
				t.Errorf("computed %d B/building, measured %d: off by %.0f B, more than %.0f%%",
					want, got, d, 100*tolerance)
			}
		})
	}
}

// TestBytesPerBuildingArithmetic pins how the size adds up: the sampled
// share is counted by index, and each sampled building adds one ring per
// series.
func TestBytesPerBuildingArithmetic(t *testing.T) {
	cfg := DefaultConfig(10)
	if got := cfg.BytesPerBuilding(); got != buildingBytes {
		t.Fatalf("untraced: %d B/building, want %d", got, buildingBytes)
	}
	cfg.SampleEvery = 4 // buildings 0, 4 and 8
	cfg.SampleRetention = 960
	perSampled := tracedBytes + core.TracedSeries*trace.RingBytes(960)
	if want := (10*buildingBytes + 3*perSampled) / 10; cfg.BytesPerBuilding() != want {
		t.Fatalf("every fourth of 10 in a ring: %d B/building, want %d", cfg.BytesPerBuilding(), want)
	}
	for _, c := range []struct {
		n    int
		want int64
	}{
		{0, 0}, {960, 16384}, {2048, 32768}, {4096, 65536}, {5000, 81920},
		{trace.MaxRetention, 16 * trace.MaxRetention},
	} {
		if got := trace.RingBytes(c.n); got != c.want {
			t.Errorf("RingBytes(%d) = %d, want %d", c.n, got, c.want)
		}
	}

	// At the largest ring the fleet's total passes int64 from about 1,560
	// sampled buildings on; the size per building does not.
	huge := DefaultConfig(100_000)
	huge.SampleEvery = 1
	huge.SampleRetention = trace.MaxRetention
	want := int64(buildingBytes + tracedBytes + core.TracedSeries*16*trace.MaxRetention)
	if got := huge.BytesPerBuilding(); got != want {
		t.Fatalf("largest ring on every building: %d B/building, want %d", got, want)
	}
	huge.SampleEvery = 4 // 25,000 of the 100,000
	if got, want := huge.BytesPerBuilding(), buildingBytes+(want-buildingBytes)/4; got != want {
		t.Fatalf("largest ring on every fourth building: %d B/building, want %d", got, want)
	}
	if _, err := New(context.Background(), huge); err == nil || !strings.Contains(err.Error(), "over the 131072 B budget") {
		t.Fatalf("New with the largest rings: err = %v, want the budget refusal", err)
	}
}

// TestNewForcesNoCollection pins that construction never forces a
// garbage collection, whose cost grows with every other fleet the
// process holds.
func TestNewForcesNoCollection(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Shards = 2
	cfg.SampleEvery = 1
	cfg.SampleRetention = 960
	cfg.MemBudgetBytes = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := New(context.Background(), cfg); err != nil {
		t.Fatalf("New: %v", err)
	}
	runtime.ReadMemStats(&after)
	if n := after.NumForcedGC - before.NumForcedGC; n != 0 {
		t.Fatalf("New forced %d garbage collections, want 0", n)
	}
}
