package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bubblezero/internal/adaptive"
	"bubblezero/internal/core"
	"bubblezero/internal/energy"
	"bubblezero/internal/exergy"
	"bubblezero/internal/wsn"
)

// SupplyTempPoint is one row of the low-exergy design ablation.
type SupplyTempPoint struct {
	TSupplyC float64
	// ChillerCOP is the device-level coefficient of performance at this
	// supply temperature (exergy argument).
	ChillerCOP float64
	// SystemCOP is the whole-system measured COP from a steady-state run
	// with the radiant tank at this setpoint.
	SystemCOP float64
	// ReachedTarget reports whether the room still converged to 25 °C.
	ReachedTarget bool
}

// supplyTempPoint derives one row of the supply-temperature sweep from
// the steady trial at that radiant supply temperature.
func supplyTempPoint(tc float64, tr steadyTrial) SupplyTempPoint {
	return SupplyTempPoint{
		TSupplyC:      tc,
		ChillerCOP:    exergy.DefaultChiller().COP(tc, core.DefaultConfig().Thermal.Outdoor.T),
		SystemCOP:     energy.Combine(tr.Radiant, tr.Vent).Value(),
		ReachedTarget: tr.FinalTempC < 25.6,
	}
}

// NoCouplingResult is the control-decomposition ablation: running the
// radiant loop without the dew-point guard in tropical air.
type NoCouplingResult struct {
	GuardedCondensationS   float64
	UnguardedCondensationS float64
}

// runNoCoupling measures condensation seconds with the dew guard on or
// off. Each call owns its system, so the two arms run concurrently.
func runNoCoupling(ctx context.Context, seed uint64, ignore bool) (float64, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Radiant.IgnoreDewGuard = ignore
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return 0, err
	}
	if err := sys.Run(ctx, 45*time.Minute); err != nil {
		return 0, err
	}
	return sys.CondensationSeconds(), nil
}

// DesyncResult compares the AC-device schedule adaptation on and off
// under a heavy (fixed-mode) traffic load.
type DesyncResult struct {
	WithDesync, WithoutDesync wsn.Stats
}

// runDesync measures medium statistics under fixed-mode channel pressure
// with the AC desynchronisation on or off.
func runDesync(ctx context.Context, seed uint64, d time.Duration, desync bool) (wsn.Stats, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.TxMode = wsn.ModeFixed // maximum channel pressure
	cfg.Net.Desync = desync
	cfg.TracePeriod = 0
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return wsn.Stats{}, err
	}
	if err := sys.Run(ctx, d); err != nil {
		return wsn.Stats{}, err
	}
	return sys.Network().Stats(), nil
}

// HistogramResetResult measures the weekly counter-reset policy's effect
// on decision accuracy over a long horizon.
type HistogramResetResult struct {
	// WithResetPct / WithoutResetPct are final fleet accuracies.
	WithResetPct, WithoutResetPct float64
}

// replayHistogramReset scores the recorded streams with or without the
// periodic reset. It only reads the scenario; devices are visited in
// sorted order for bit-identical accumulation.
func replayHistogramReset(sc *NetScenario, resetEvery time.Duration, reset bool) (float64, error) {
	var sum float64
	n := 0
	for _, id := range sortedKeys(sc.Readings) {
		cfg := adaptive.DefaultConfig(sc.TsplS[id])
		cfg.TrackExact = true
		sched, err := adaptive.NewScheduler(cfg)
		if err != nil {
			return 0, err
		}
		samplesPerReset := int(resetEvery.Seconds() / sc.TsplS[id])
		for i, v := range sc.Readings[id] {
			if reset && samplesPerReset > 0 && i > 0 && i%samplesPerReset == 0 {
				sched.Histogram().Reset()
			}
			sched.OnSample(v)
		}
		if frac, decisions := sched.Accuracy(); decisions > 0 {
			sum += frac
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("experiments: no decisions in reset ablation")
	}
	return sum / float64(n) * 100, nil
}

// SummarizeSupplyTemp renders the sweep.
func SummarizeSupplyTemp(pts []SupplyTempPoint) string {
	var b strings.Builder
	b.WriteString("Ablation: radiant supply temperature sweep (low-exergy argument)\n")
	b.WriteString("  Tsupp  chillerCOP  systemCOP  reaches 25°C\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "  %4.0f°C     %6.2f      %5.2f       %v\n",
			p.TSupplyC, p.ChillerCOP, p.SystemCOP, p.ReachedTarget)
	}
	return b.String()
}
