package experiments

import (
	"fmt"
	"strings"

	"bubblezero/internal/adaptive"
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

// fig12Point scores one histogram size against the recorded streams. It
// only reads the scenario, so distinct Ns replay concurrently.
func fig12Point(sc *NetScenario, n int) (Fig12Point, error) {
	acc, err := replayAccuracy(sc, n)
	if err != nil {
		return Fig12Point{}, err
	}
	hist, err := adaptive.NewHistogram(n)
	if err != nil {
		return Fig12Point{}, err
	}
	return Fig12Point{
		N:           n,
		AccuracyPct: acc * 100,
		RAMBytes:    hist.RAMBytes(),
		CPUSeconds:  adaptive.CPUSecondsMSP430(n),
	}, nil
}

// replayAccuracy feeds every recorded device stream through a fresh
// scheduler with histogram size n and returns the mean decision accuracy.
// Devices are visited in sorted order so the accumulated mean is
// bit-identical across runs and pool widths.
func replayAccuracy(sc *NetScenario, n int) (float64, error) {
	var sum float64
	devices := 0
	for _, id := range sortedKeys(sc.Readings) {
		cfg := adaptive.DefaultConfig(sc.TsplS[id])
		cfg.N = n
		cfg.TrackExact = true
		sched, err := adaptive.NewScheduler(cfg)
		if err != nil {
			return 0, err
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
		return 0, fmt.Errorf("experiments: no devices produced decisions")
	}
	return sum / float64(devices), nil
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
