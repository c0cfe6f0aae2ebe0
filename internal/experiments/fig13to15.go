package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/energy"
	"bubblezero/internal/trace"
	"bubblezero/internal/wsn"
)

// Fig13Result is "Accuracy as time elapses" (paper Figure 13): rolling
// decision accuracy starts around the high-80s while var_max/var_min are
// still moving and settles to 97–99 % once enough events have been seen.
type Fig13Result struct {
	// Accuracy is the fleet-average rolling accuracy sampled every 5 min.
	Accuracy *trace.Series
	// VarMinStableS / VarMaxStableS are when the histogram range bounds
	// last moved (paper: var_min ≈140 s, var_max ≈1.5 h).
	VarMinStableS, VarMaxStableS float64
	// FinalAccuracyPct is the last sampled fleet accuracy.
	FinalAccuracyPct float64
}

// Fig13FromScenario extracts the Figure 13 trajectory from an
// already-simulated scenario. It only reads the scenario.
func Fig13FromScenario(sc *NetScenario) *Fig13Result {
	res := &Fig13Result{
		Accuracy:      sc.Accuracy,
		VarMinStableS: sc.VarMinStableAt.Seconds(),
		VarMaxStableS: sc.VarMaxStableAt.Seconds(),
	}
	if v, ok := sc.Accuracy.Last(); ok {
		res.FinalAccuracyPct = v * 100
	}
	return res
}

// Summary renders the trajectory endpoints.
func (r *Fig13Result) Summary() string {
	st := r.Accuracy.Stats()
	return fmt.Sprintf(
		"Fig13: accuracy min %.1f%% → final %.1f%% (paper: ≈87%% → 97–99%%); "+
			"var_min stable after %.0f s (paper ≈140 s), var_max after %.1f h (paper ≈1.5 h)",
		st.Min*100, r.FinalAccuracyPct, r.VarMinStableS, r.VarMaxStableS/3600)
}

// Fig14Result is the T_snd adaptation snapshot (paper Figure 14): the
// transmission period sits at w_max·T_spl during stability, snaps to
// T_spl on each door event, and the detection delay is a few seconds.
type Fig14Result struct {
	// Tsnd is the observed device's transmission-period timeline.
	Tsnd *trace.Series
	// DeviceID is the humidity mote observed (subspace-1).
	DeviceID string
	// EventTimes are the door events within the observed window.
	EventTimes []time.Time
	// MaxDelayS and MeanDelayS are the event-detection delays (paper:
	// max 4 s, mean 2.7 s).
	MaxDelayS, MeanDelayS float64
	// Detected is how many events were detected, out of Total.
	Detected, Total int
	// StableTsndS is the plateau transmission period (paper: 64 s).
	StableTsndS float64
}

// Fig14FromScenario extracts the Figure 14 adaptation metrics from an
// already-simulated scenario. It only reads the scenario.
func Fig14FromScenario(sc *NetScenario) *Fig14Result {
	id := DeviceForEvent(true)
	res := &Fig14Result{
		Tsnd:        sc.Tsnd[id],
		DeviceID:    id,
		StableTsndS: sc.Tsnd[id].Stats().Max,
	}
	for i, ev := range sc.EventTimes {
		if !sc.DoorEvents[i] {
			continue
		}
		res.EventTimes = append(res.EventTimes, ev)
		res.Total++
		for _, tr := range sc.Transitions[id] {
			if tr.Before(ev) || tr.After(ev.Add(2*time.Minute)) {
				continue
			}
			delay := tr.Sub(ev).Seconds()
			res.Detected++
			res.MeanDelayS += delay
			if delay > res.MaxDelayS {
				res.MaxDelayS = delay
			}
			break
		}
	}
	if res.Detected > 0 {
		res.MeanDelayS /= float64(res.Detected)
	}
	return res
}

// Summary renders the adaptation metrics.
func (r *Fig14Result) Summary() string {
	return fmt.Sprintf(
		"Fig14 (%s): stable Tsnd %.0f s (paper 64), %d/%d door events detected, "+
			"delay max %.1f s mean %.1f s (paper max 4, mean 2.7)",
		r.DeviceID, r.StableTsndS, r.Detected, r.Total, r.MaxDelayS, r.MeanDelayS)
}

// Fig15Result is the T_snd distribution and lifetime comparison (paper
// Figure 15): the Fixed scheme pins T_snd at T_spl while BT-ADPT spans
// 2–64 s with a mean around 48 s, stretching two AA cells from ≈0.7 to
// ≈3.2 years.
type Fig15Result struct {
	// CDFXs / CDFPs are the BT-ADPT T_snd empirical CDF.
	CDFXs, CDFPs []float64
	// MeanTsndS is the fleet-mean adaptive transmission period.
	MeanTsndS float64
	// AdaptiveYears / FixedYears are projected battery lifetimes from the
	// measured drain rates.
	AdaptiveYears, FixedYears float64
}

// Fig15FromScenario extracts the Figure 15 distribution from an
// already-simulated scenario and runs the short fixed-mode baseline for
// the lifetime comparison (stationary by construction, so it is cheap and
// not worth caching).
func Fig15FromScenario(ctx context.Context, sc *NetScenario, seed uint64) (*Fig15Result, error) {
	res := &Fig15Result{MeanTsndS: sc.MeanTsndS()}
	res.CDFXs, res.CDFPs = trace.CDF(sc.AllTsndSamples())

	// Lifetime projection from the steady-state drain (the boot hour's
	// legitimate high-rate traffic is not representative of years of
	// operation).
	res.AdaptiveYears = meanLifetimeYears(sc.SteadyDrainJ, sc.SteadyElapsed)

	// Fixed-mode drain rate: stationary by construction, one hour is
	// plenty.
	fixedCfg := core.DefaultConfig()
	fixedCfg.Seed = seed
	fixedCfg.TxMode = wsn.ModeFixed
	fixedCfg.TracePeriod = 0
	fixedSys, err := core.NewSystem(fixedCfg)
	if err != nil {
		return nil, err
	}
	const fixedRun = time.Hour
	if err := fixedSys.Run(ctx, fixedRun); err != nil {
		return nil, err
	}
	fixedDrain := make(map[string]float64)
	for _, dev := range fixedSys.Devices() {
		fixedDrain[string(dev.Node().ID())] = dev.Node().Battery().UsedJ()
	}
	res.FixedYears = meanLifetimeYears(fixedDrain, fixedRun)
	return res, nil
}

// meanLifetimeYears projects the mean battery lifetime from per-device
// drains over the elapsed run. Devices are visited in sorted order so the
// accumulated mean is bit-identical across runs.
func meanLifetimeYears(drains map[string]float64, elapsed time.Duration) float64 {
	if len(drains) == 0 {
		return 0
	}
	var sum float64
	for _, id := range sortedKeys(drains) {
		d := drains[id]
		if d <= 0 {
			continue
		}
		avgPower := d / elapsed.Seconds()
		sum += energy.Years(energy.NewTwoAA().Lifetime(avgPower))
	}
	return sum / float64(len(drains))
}

// Summary renders the distribution and lifetime numbers.
func (r *Fig15Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b,
		"Fig15: BT-ADPT mean Tsnd %.1f s (paper ≈48); lifetime adaptive %.1f y vs fixed %.1f y "+
			"(paper 3.2 vs 0.7)\n", r.MeanTsndS, r.AdaptiveYears, r.FixedYears)
	b.WriteString("  CDF: ")
	for i := range r.CDFXs {
		fmt.Fprintf(&b, "%.0fs:%.2f ", r.CDFXs[i], r.CDFPs[i])
	}
	return b.String()
}
