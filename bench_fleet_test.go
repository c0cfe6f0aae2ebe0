package bubblezero_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"bubblezero/internal/fleet"
)

// Fleet-scale benchmark: N full BubbleZERO buildings stepped in one
// process, sharded across the runner pool. The headline metrics are
// building-ticks/s (aggregate simulated seconds of building time per
// wall-clock second) and bytes/building (GC-settled live-heap cost per
// instantiated building, measured here around construction; New itself
// checks its computed size against the 128 KiB DefaultConfig budget).
// Recorded in BENCH_fleet.json via `make bench-fleet-json`;
// scripts/benchguard gates the N1000xS8 rate.
//
// Shard-count scaling (S1 vs S8 at N=10000) is only visible on multicore
// hosts: with GOMAXPROCS=1 the shards time-slice one core and the two
// configurations measure the same throughput plus scheduling overhead.
func BenchmarkFleetTick(b *testing.B) {
	cases := []struct{ buildings, shards int }{
		{100, 8},
		{1000, 8},
		{10000, 1},
		{10000, 8},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("N%dxS%d", c.buildings, c.shards), func(b *testing.B) {
			cfg := fleet.DefaultConfig(c.buildings)
			cfg.Shards = c.shards
			ctx := context.Background()
			// Construction (and its memory-budget gate) is untimed: the
			// benchmark measures steady-state stepping. Its live heap is
			// the HeapAlloc growth between two full collections.
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			fl, err := fleet.New(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			bytesPerBuilding := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(c.buildings)
			if err := fl.RunTicks(ctx, 60); err != nil {
				b.Fatal(err)
			}
			const ticksPer = 64 // one epoch's worth of fleet ticks per iteration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fl.RunTicks(ctx, ticksPer); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			buildingTicks := float64(b.N) * ticksPer * float64(c.buildings)
			b.ReportMetric(buildingTicks/b.Elapsed().Seconds(), "building-ticks/s")
			b.ReportMetric(float64(bytesPerBuilding), "bytes/building")
		})
	}
}
