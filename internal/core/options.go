package core

import (
	"bubblezero/internal/fault"
	"bubblezero/internal/psychro"
)

// Option configures one System beyond its Config. Every option is a
// per-instance setting that leaves the Config untouched, so fleet members
// built from one Shared handle all read the handle's single Config.
type Option func(*sysOpts)

type sysOpts struct {
	plan    *fault.Plan
	seed    *uint64
	outdoor *psychro.State
}

// WithFaultPlan schedules the plan's events on the system timeline and
// arms the stale-reading degradation watchdog. A nil or empty plan is a
// no-op: the run stays bit-identical to a plain NewSystem(cfg).
func WithFaultPlan(p *fault.Plan) Option {
	return func(o *sysOpts) { o.plan = p }
}

// WithSeed overrides the seed driving every stochastic element, without
// editing (or copying) the shared Config.
func WithSeed(seed uint64) Option {
	return func(o *sysOpts) { o.seed = &seed }
}

// WithOutdoor overrides the outdoor boundary condition (dry-bulb and dew
// point, °C) the thermal model is initialised from. Like WithSeed it is a
// per-instance override, not a Config edit, so fleet members with varied
// climates still share one Config.
func WithOutdoor(tC, dewC float64) Option {
	return func(o *sysOpts) {
		st := psychro.NewStateDewPoint(tC, dewC, 0)
		o.outdoor = &st
	}
}
