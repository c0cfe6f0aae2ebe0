package experiments

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"bubblezero/internal/adaptive"
	"bubblezero/internal/runner"
)

// perNFig12Point is the reference the shared-ground-truth sweep replaced:
// one histogram size at a time, every device replayed through its own
// TrackExact scheduler with a private exact clusterer, the fleet mean
// added up in sorted-ID order.
func perNFig12Point(sc *NetScenario, n int) (Fig12Point, error) {
	var sum float64
	devices := 0
	for _, id := range sortedKeys(sc.Readings) {
		cfg := adaptive.DefaultConfig(sc.TsplS[id])
		cfg.N = n
		cfg.TrackExact = true
		sched, err := adaptive.NewScheduler(cfg)
		if err != nil {
			return Fig12Point{}, err
		}
		for _, v := range sc.Readings[id] {
			sched.OnSample(v)
		}
		if frac, decisions := sched.Accuracy(); decisions > 0 {
			sum += frac
			devices++
		}
	}
	if devices == 0 {
		return Fig12Point{}, fmt.Errorf("experiments: no devices produced decisions")
	}
	hist, err := adaptive.NewHistogram(n)
	if err != nil {
		return Fig12Point{}, err
	}
	return Fig12Point{
		N:           n,
		AccuracyPct: sum / float64(devices) * 100,
		RAMBytes:    hist.RAMBytes(),
		CPUSeconds:  adaptive.CPUSecondsMSP430(n),
	}, nil
}

// Replaying each device once against a shared exact clusterer seeded with
// the scenario's ground truth, fanned out over devices, must give every
// Fig12Point of the per-size replay bit for bit, at any pool width.
func TestFig12SharedGroundTruthMatchesPerN(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three 2 h scenarios")
	}
	ctx := context.Background()
	ns := []int{5, 10, 15, 20, 25, 30, 40, 50, 60, 70}
	for _, seed := range []uint64{1, 9, 26} {
		sc, err := testSuite.NetScenario(ctx, seed, 2*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range sortedKeys(sc.Readings) {
			if len(sc.GroundTruth[id]) == 0 {
				t.Errorf("seed %d: %s has readings but no ground truth; the replay starts from nothing", seed, id)
			}
		}
		want := make([]Fig12Point, len(ns))
		for k, n := range ns {
			if want[k], err = perNFig12Point(sc, n); err != nil {
				t.Fatal(err)
			}
		}
		for _, width := range []int{1, runtime.NumCPU()} {
			got, err := fig12Points(ctx, runner.NewPool(width), sc, ns)
			if err != nil {
				t.Fatal(err)
			}
			for k := range ns {
				if got[k] != want[k] {
					t.Errorf("seed %d, width %d, N=%d: shared %+v, per-N %+v",
						seed, width, ns[k], got[k], want[k])
				}
			}
		}
	}
}
