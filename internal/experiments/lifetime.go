package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/energy"
	"bubblezero/internal/fault"
	"bubblezero/internal/sim"
	"bubblezero/internal/wsn"
)

// The mote-lifetime experiment: the paper's battery argument (§IV-C) is
// that adaptive transmission stretches sensor lifetime by sending only
// on change. Rather than simulate months, a fault-plan BatteryScale
// event fast-forwards every mote to its last few joules once the room
// has settled; from there, time-to-depletion differs only by how often
// each policy actually keys the radio.

// lifetimeSettle lets the room and the adaptive send-rate converge
// before the batteries are scaled down.
const lifetimeSettle = 45 * time.Minute

// lifetimeRemainingJ is the energy each mote is left with at the scale
// event — enough for hours under adaptive sending, a fraction of that
// under fixed-rate sending.
const lifetimeRemainingJ = 4.0

// lifetimeHorizon bounds the run; motes still alive at the end are
// censored at the horizon, which only understates the adaptive margin.
const lifetimeHorizon = 6 * time.Hour

// MoteLifetime holds one device's depletion record.
type MoteLifetime struct {
	Node string
	// DiedAfterMin is minutes from the battery-scale event to depletion;
	// Censored marks motes still alive at the horizon (DiedAfterMin then
	// holds the observation bound).
	DiedAfterMin float64
	Censored     bool
}

// LifetimeRun is one transmission policy's outcome.
type LifetimeRun struct {
	Mode  wsn.TxMode
	Motes []MoteLifetime
	// MedianMin is the median time-to-depletion in minutes (censored
	// motes count at the horizon, a lower bound).
	MedianMin float64
	// Alive is the number of motes still running at the horizon.
	Alive int
}

// LifetimeResult compares adaptive against fixed-rate transmission.
type LifetimeResult struct {
	Seed            uint64
	Adaptive, Fixed LifetimeRun
}

// lifetimePlan scales every mote's battery down at the settle mark.
func lifetimePlan() *fault.Plan {
	frac := lifetimeRemainingJ / energy.TwoAACapacityJ
	evs := make([]fault.Event, 0, 18)
	for z := 1; z <= 4; z++ {
		evs = append(evs,
			fault.BatteryScale(lifetimeSettle, fmt.Sprintf("bt-temp-%d", z), frac),
			fault.BatteryScale(lifetimeSettle, fmt.Sprintf("bt-hum-%d", z), frac),
			fault.BatteryScale(lifetimeSettle, fmt.Sprintf("bt-co2-%d", z), frac),
			fault.BatteryScale(lifetimeSettle, fmt.Sprintf("bt-boxdew-%d", z), frac),
		)
	}
	evs = append(evs,
		fault.BatteryScale(lifetimeSettle, "bt-paneldew-1", frac),
		fault.BatteryScale(lifetimeSettle, "bt-paneldew-2", frac),
	)
	return fault.MustPlan(evs...)
}

// runLifetime executes one policy.
func runLifetime(ctx context.Context, seed uint64, mode wsn.TxMode) (LifetimeRun, error) {
	out := LifetimeRun{Mode: mode}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.TxMode = mode
	sys, err := core.NewSystem(cfg, core.WithFaultPlan(lifetimePlan()))
	if err != nil {
		return out, err
	}
	// Probe: record the elapsed time at which each mote's battery first
	// reads depleted. Registration order puts the probe after the motes,
	// so a device dying on tick T is seen on tick T.
	devs := sys.Devices()
	diedAtS := make([]float64, len(devs))
	for i := range diedAtS {
		diedAtS[i] = -1
	}
	sys.Engine().Register(sim.ComponentFunc{ID: "lifetime.probe", Fn: func(env *sim.Env) {
		for i, d := range devs {
			if diedAtS[i] < 0 && d.Node().Battery().Depleted() {
				diedAtS[i] = env.Elapsed().Seconds()
			}
		}
	}})
	if err := sys.Run(ctx, lifetimeHorizon); err != nil {
		return out, err
	}

	scaleS := lifetimeSettle.Seconds()
	boundMin := (lifetimeHorizon.Seconds() - scaleS) / 60
	times := make([]float64, 0, len(devs))
	for i, d := range devs {
		m := MoteLifetime{Node: string(d.Node().ID())}
		if diedAtS[i] < 0 {
			m.DiedAfterMin, m.Censored = boundMin, true
			out.Alive++
		} else {
			m.DiedAfterMin = (diedAtS[i] - scaleS) / 60
		}
		out.Motes = append(out.Motes, m)
		times = append(times, m.DiedAfterMin)
	}
	sort.Float64s(times)
	out.MedianMin = times[len(times)/2]
	return out, nil
}

// Lifetime runs both policies on the suite's pool.
func (s *Suite) Lifetime(ctx context.Context, seed uint64) (*LifetimeResult, error) {
	res := &LifetimeResult{Seed: seed}
	err := s.pool.Run(ctx,
		func(ctx context.Context) error {
			r, err := runLifetime(ctx, seed, wsn.ModeAdaptive)
			res.Adaptive = r
			return err
		},
		func(ctx context.Context) error {
			r, err := runLifetime(ctx, seed, wsn.ModeFixed)
			res.Fixed = r
			return err
		},
	)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Ratio is the adaptive/fixed median lifetime ratio (censoring makes it
// a lower bound when adaptive motes outlive the horizon).
func (r *LifetimeResult) Ratio() float64 {
	//bzlint:allow floateq zero guard before dividing; any nonzero median gives a finite ratio
	if r.Fixed.MedianMin == 0 {
		return 0
	}
	return r.Adaptive.MedianMin / r.Fixed.MedianMin
}

// WriteTable renders per-mote depletion times side by side.
func (r *LifetimeResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-16s %14s %14s\n", "mote", "adaptive(min)", "fixed(min)"); err != nil {
		return err
	}
	fixedByNode := make(map[string]MoteLifetime, len(r.Fixed.Motes))
	for _, m := range r.Fixed.Motes {
		fixedByNode[m.Node] = m
	}
	cell := func(m MoteLifetime) string {
		if m.Censored {
			return fmt.Sprintf(">%.0f", m.DiedAfterMin)
		}
		return fmt.Sprintf("%.1f", m.DiedAfterMin)
	}
	for _, a := range r.Adaptive.Motes {
		if _, err := fmt.Fprintf(w, "%-16s %14s %14s\n", a.Node, cell(a), cell(fixedByNode[a.Node])); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders the headline comparison.
func (r *LifetimeResult) Summary() string {
	return fmt.Sprintf(
		"Lifetime: from %.0f J/mote, adaptive median %.0f min (%d/%d alive at horizon) vs fixed %.0f min — %.1f× longer",
		lifetimeRemainingJ, r.Adaptive.MedianMin, r.Adaptive.Alive, len(r.Adaptive.Motes),
		r.Fixed.MedianMin, r.Ratio())
}
