package experiments

import (
	"context"
	"fmt"
	"strings"

	"bubblezero/internal/adaptive"
	"bubblezero/internal/runner"
)

// Fig12Point is one row of the histogram-size selection study.
type Fig12Point struct {
	N           int
	AccuracyPct float64
	RAMBytes    int
	CPUSeconds  float64 // modelled MSP430 execution time of Algorithm 1
}

// Fig12Result is the "Choosing the right N" study (paper Figure 12):
// accuracy climbs to ≈98 % for large N while RAM grows linearly (130 B at
// N = 60) and CPU time superlinearly (≈1.6 s at N = 60), motivating the
// default N = 40.
type Fig12Result struct {
	Points []Fig12Point
	// Scenario is the workload the replay used.
	Scenario *NetScenario
}

// fig12Points scores every histogram size in ns against the scenario's
// recorded streams. Each device's stream is replayed once, all sizes in
// lockstep against one exact ground truth (adaptive.ReplayAccuracy) that
// starts from the thresholds the scenario's mote already evaluated on the
// same readings, and the devices fan out across pool; the fleet mean per
// size then adds the device accuracies in sorted-ID order, so every point
// is bit-identical across runs and pool widths.
func fig12Points(ctx context.Context, pool *runner.Pool, sc *NetScenario, ns []int) ([]Fig12Point, error) {
	ids := sortedKeys(sc.Readings)
	fracs := make([][]float64, len(ids))
	decisions := make([][]int, len(ids))
	err := pool.ForEach(ctx, len(ids), func(_ context.Context, i int) error {
		cfgs := make([]adaptive.Config, len(ns))
		for k, n := range ns {
			cfgs[k] = adaptive.DefaultConfig(sc.TsplS[ids[i]])
			cfgs[k].N = n
		}
		var err error
		fracs[i], decisions[i], err = adaptive.ReplayAccuracy(sc.Readings[ids[i]], cfgs, sc.GroundTruth[ids[i]])
		return err
	})
	if err != nil {
		return nil, err
	}
	points := make([]Fig12Point, len(ns))
	for k, n := range ns {
		var sum float64
		devices := 0
		for i := range ids {
			if decisions[i][k] > 0 {
				sum += fracs[i][k]
				devices++
			}
		}
		if devices == 0 {
			return nil, fmt.Errorf("experiments: no devices produced decisions")
		}
		hist, err := adaptive.NewHistogram(n)
		if err != nil {
			return nil, err
		}
		points[k] = Fig12Point{
			N:           n,
			AccuracyPct: sum / float64(devices) * 100,
			RAMBytes:    hist.RAMBytes(),
			CPUSeconds:  adaptive.CPUSecondsMSP430(n),
		}
	}
	return points, nil
}

// Summary renders the N-selection table.
func (r *Fig12Result) Summary() string {
	var b strings.Builder
	b.WriteString("Fig12: N selection (paper: ≈98% accuracy for large N; 130 B and ≈1.6 s at N=60)\n")
	b.WriteString("   N  accuracy%%  RAM(B)  MSP430 CPU(s)\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %2d     %6.2f    %4d         %6.3f\n",
			p.N, p.AccuracyPct, p.RAMBytes, p.CPUSeconds)
	}
	return b.String()
}
