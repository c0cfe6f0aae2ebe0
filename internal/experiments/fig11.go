package experiments

import (
	"context"
	"fmt"
	"time"

	"bubblezero/internal/baseline"
	"bubblezero/internal/core"
	"bubblezero/internal/energy"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
)

// Fig11Result is the energy-efficiency comparison via the standard COP
// metric (paper Figure 11: AirCon 2.8, Bubble-C 4.52, Bubble-V 2.82,
// BubbleZERO 4.07).
type Fig11Result struct {
	AirCon     float64
	BubbleC    float64
	BubbleV    float64
	BubbleZERO float64
	// ImprovementPct is BubbleZERO's gain over AirCon (paper: 45.5 %).
	ImprovementPct float64
	// RadiantRemovedW / RadiantConsumedW echo the paper's raw power
	// readings (964.8 W / 213.4 W), vent likewise (213.2 W / 75.6 W),
	// averaged over the measurement hour.
	RadiantRemovedW, RadiantConsumedW float64
	VentRemovedW, VentConsumedW       float64
}

// The steady-state measurement behind Figure 11, the exergy audit and the
// supply-temperature sweep: one hour from the outdoor state to steady
// operation, a COP reset, then one measured hour.
const (
	steadyBoot    = time.Hour
	steadyMeasure = time.Hour
)

// steadyTrial is one steady-state measurement of BubbleZERO.
type steadyTrial struct {
	// Radiant and Vent are the two modules' COP meters over the measured
	// hour.
	Radiant, Vent energy.COP
	// FinalTempC is the room average temperature at the end.
	FinalTempC float64
}

// runSteadyTrial measures BubbleZERO with its radiant supply water at
// setpointC. Each call builds its own system and RNG streams, so trials
// are independent and safe to run concurrently.
func runSteadyTrial(ctx context.Context, seed uint64, setpointC float64) (steadyTrial, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.RadiantSetpointC = setpointC
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return steadyTrial{}, err
	}
	if err := sys.Run(ctx, steadyBoot); err != nil {
		return steadyTrial{}, err
	}
	sys.ResetCOP()
	if err := sys.Run(ctx, steadyMeasure); err != nil {
		return steadyTrial{}, err
	}
	return steadyTrial{
		Radiant:    sys.COPRadiant(),
		Vent:       sys.COPVent(),
		FinalTempC: sys.Room().AverageT(),
	}, nil
}

// runAirConTrial measures the conventional AirCon baseline on an identical
// room, on the steady trial's schedule, and returns its COP meter over the
// measured hour.
func runAirConTrial(ctx context.Context, seed uint64) (energy.COP, error) {
	cfg := core.DefaultConfig()
	room, err := thermal.NewRoomAtOutdoor(cfg.Thermal)
	if err != nil {
		return energy.COP{}, err
	}
	unit, err := baseline.New(baseline.DefaultConfig(), room)
	if err != nil {
		return energy.COP{}, err
	}
	engine := sim.NewEngine(sim.MustClock(cfg.Start, cfg.Step), seed)
	engine.Register(unit)
	engine.Register(room)
	if err := engine.RunFor(ctx, steadyBoot); err != nil {
		return energy.COP{}, err
	}
	unit.ResetCOP()
	if err := engine.RunFor(ctx, steadyMeasure); err != nil {
		return energy.COP{}, err
	}
	return unit.COP(), nil
}

// Fig11 boots both systems to steady state and measures one steady hour,
// on a suite of its own (Suite.Fig11).
func Fig11(ctx context.Context, seed uint64) (*Fig11Result, error) {
	return NewSuite(1).Fig11(ctx, seed)
}

// fig11FromTrials derives the COP comparison from the two trials.
func fig11FromTrials(bz steadyTrial, airCon energy.COP) *Fig11Result {
	secs := steadyMeasure.Seconds()
	r, v := bz.Radiant, bz.Vent
	res := &Fig11Result{
		AirCon:           airCon.Value(),
		BubbleC:          r.Value(),
		BubbleV:          v.Value(),
		BubbleZERO:       energy.Combine(r, v).Value(),
		RadiantRemovedW:  r.RemovedJ / secs,
		RadiantConsumedW: r.ConsumedJ / secs,
		VentRemovedW:     v.RemovedJ / secs,
		VentConsumedW:    v.ConsumedJ / secs,
	}
	if res.AirCon > 0 {
		res.ImprovementPct = (res.BubbleZERO - res.AirCon) / res.AirCon * 100
	}
	return res
}

// Summary renders the bar values next to the paper's.
func (r *Fig11Result) Summary() string {
	return fmt.Sprintf(
		"Fig11 COP: AirCon %.2f (paper 2.80) | Bubble-C %.2f (4.52) | Bubble-V %.2f (2.82) | "+
			"BubbleZERO %.2f (4.07) | improvement %.1f%% (45.5%%)",
		r.AirCon, r.BubbleC, r.BubbleV, r.BubbleZERO, r.ImprovementPct)
}
