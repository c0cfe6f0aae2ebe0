package sim

import (
	"context"
	"fmt"
	"time"
)

// Env is the per-tick view of the simulation handed to components. It is
// valid only for the duration of a single Step call.
type Env struct {
	clock *Clock
	rng   *RNG
	dtS   float64
}

// NewEnv returns an Env over the given clock and RNG. The engine builds
// its own Env for normal runs; this constructor exists so tests and
// benchmarks can drive a single component's Step directly (e.g. the
// AllocsPerRun pins on the tick kernel).
func NewEnv(clock *Clock, rng *RNG) *Env {
	return &Env{clock: clock, rng: rng, dtS: clock.Step().Seconds()}
}

// Now returns the simulated time at the start of the current step.
func (e *Env) Now() time.Time { return e.clock.Now() }

// Dt returns the step duration as seconds. Physical models integrate with
// this value. The Duration-to-seconds conversion is done once at Env
// construction, not per call — the step never changes over a clock's life.
func (e *Env) Dt() float64 { return e.dtS }

// Step returns the step duration.
func (e *Env) Step() time.Duration { return e.clock.Step() }

// Tick returns the current tick index.
func (e *Env) Tick() uint64 { return e.clock.Tick() }

// Elapsed returns the simulated time since the engine started.
func (e *Env) Elapsed() time.Duration { return e.clock.Elapsed() }

// RNG returns the engine's deterministic random source.
func (e *Env) RNG() *RNG { return e.rng }

// Component is a simulation participant. Step is called once per tick in
// registration order. Components that need a coarser cadence either keep
// their own accumulators, or implement Cadenced and let the engine's
// due-wheel skip the ticks between their due points entirely.
type Component interface {
	// Name identifies the component in error messages and traces.
	Name() string
	// Step advances the component by one tick.
	Step(env *Env)
}

// ComponentFunc adapts a function to the Component interface.
type ComponentFunc struct {
	ID string
	Fn func(env *Env)
}

var _ Component = ComponentFunc{}

// Name implements Component.
func (c ComponentFunc) Name() string { return c.ID }

// Step implements Component.
func (c ComponentFunc) Step(env *Env) { c.Fn(env) }

// Engine advances a set of components through simulated time. Components
// are stepped in the order they were added; the order is the data-flow
// order of the physical system (environment → plant → sensors → network →
// controllers → actuators).
//
// Scheduling is cadence-aware: every-tick components (the default) are
// stepped on every tick, components implementing Cadenced sit on a
// due-wheel and are stepped only on the ticks their own accumulators say
// are due, and on-demand components run only on ticks they were woken
// for. Within any single tick the active components still step in
// registration order, so the schedule is observationally identical to
// stepping everything every tick — skipped ticks are exactly the ticks on
// which the component would have done nothing.
type Engine struct {
	clock    *Clock
	rng      *RNG
	timeline *Timeline
	dtS      float64

	entries []*entry // every registered component, registration order
	always  []*entry // every-tick and on-demand entries, registration order
	wheel   dueWheel // cadenced entries, hashed by due tick

	env *Env // built by the first RunTicks, reused by every later one
}

// NewEngine returns an engine over the given clock and seed.
func NewEngine(clock *Clock, seed uint64) *Engine {
	return &Engine{
		clock:    clock,
		rng:      NewRNG(seed),
		timeline: NewTimeline(),
		dtS:      clock.Step().Seconds(),
	}
}

// Clock returns the engine clock.
func (e *Engine) Clock() *Clock { return e.clock }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Timeline returns the engine's event timeline for scheduling one-shot
// events (door openings, setpoint changes, ...).
func (e *Engine) Timeline() *Timeline { return e.timeline }

// ctxCheckSimTime bounds how much simulated time may elapse between
// context checks, so cancellation latency is bounded in simulated time
// regardless of the step size. maxCtxCheckTicks additionally bounds the
// tick count for coarse steps (a one-minute step would otherwise check
// every tick anyway; a sub-millisecond step would go tens of thousands of
// ticks between checks without the cap keeping per-check work bounded).
const (
	ctxCheckSimTime  = time.Minute
	maxCtxCheckTicks = 4096
)

// ctxCheckEvery returns how many ticks may pass between context checks:
// at most one simulated minute and at most maxCtxCheckTicks, whichever is
// fewer ticks, and never less than one.
func (e *Engine) ctxCheckEvery() uint64 {
	every := uint64(ctxCheckSimTime / e.clock.Step())
	if every < 1 {
		every = 1
	}
	if every > maxCtxCheckTicks {
		every = maxCtxCheckTicks
	}
	return every
}

// RunFor advances the simulation by d of simulated time, rounded DOWN to
// whole ticks: a duration that is not a whole multiple of the step
// silently truncates, so 90 s at a 60 s step runs exactly one tick and
// d < step runs none. Callers that need the remainder covered must round
// d up to a multiple of Clock.Step themselves. The context is checked at
// least once per simulated minute (and at least every 4096 ticks, for
// steps coarser than ~15 ms) so that long runs remain cancellable without
// a per-tick overhead.
func (e *Engine) RunFor(ctx context.Context, d time.Duration) error {
	ticks := uint64(d / e.clock.Step())
	return e.RunTicks(ctx, ticks)
}

// RunTicks advances the simulation by n ticks. On both return paths —
// completion and cancellation — cadenced components are caught up
// through the last executed tick, so post-run observers read exactly the
// state per-tick stepping would have produced.
//
//bzlint:hotpath
func (e *Engine) RunTicks(ctx context.Context, n uint64) error {
	// An Env is an immutable view (clock pointer, RNG pointer, fixed dt), so
	// one instance serves every run for the engine's life — fleets running
	// thousands of engines per epoch would otherwise pay one allocation per
	// engine per epoch.
	if e.env == nil {
		e.env = NewEnv(e.clock, e.rng)
	}
	env := e.env
	ctxCheckEvery := e.ctxCheckEvery()
	for i := uint64(0); i < n; i++ {
		if i%ctxCheckEvery == 0 {
			select {
			case <-ctx.Done():
				e.catchUp(env)
				//bzlint:allow hotpath cold cancellation exit, runs at most once per run
				return fmt.Errorf("sim: run: %w", ctx.Err())
			default:
			}
		}
		e.timeline.fire(env)
		e.stepDue(env)
		e.clock.Advance()
	}
	e.catchUp(env)
	return nil
}

// stepDue advances every component scheduled for the current tick: the
// wheel entries due now, merged with the every-tick list in registration
// order.
func (e *Engine) stepDue(env *Env) {
	tick := e.clock.Tick()
	var due []*entry
	if e.wheel.count != 0 {
		due = e.wheel.takeDue(tick)
	}
	always := e.always
	ai, di := 0, 0
	for ai < len(always) && di < len(due) {
		if always[ai].idx < due[di].idx {
			e.stepAlways(always[ai], env)
			ai++
		} else {
			e.stepWheel(due[di], env, tick)
			di++
		}
	}
	for ; ai < len(always); ai++ {
		e.stepAlways(always[ai], env)
	}
	for ; di < len(due); di++ {
		e.stepWheel(due[di], env, tick)
	}
}

func (e *Engine) stepAlways(ent *entry, env *Env) {
	if ent.suspended {
		// A wake received while suspended stays latched and fires on the
		// first processed tick after Resume.
		return
	}
	if ent.onDemand {
		if !ent.woken {
			return
		}
		ent.woken = false
	}
	ent.c.Step(env)
	ent.steps++
}

// stepWheel catches a due entry up through the current tick (one StepN
// call covering every tick since its last activation), then reschedules
// it at its next due tick. Suspended entries keep their slot but the
// poll is a no-op: the covered ticks are marked done without being
// delivered, so the outage is never replayed.
func (e *Engine) stepWheel(ent *entry, env *Env, tick uint64) {
	if ent.suspended {
		ent.doneThrough = tick + 1
		ent.nextDue = tick + ent.cad.NextDue(e.dtS)
		e.wheel.push(ent, tick)
		return
	}
	ent.cad.StepN(env, tick+1-ent.doneThrough)
	ent.doneThrough = tick + 1
	ent.steps++
	ent.nextDue = tick + ent.cad.NextDue(e.dtS)
	e.wheel.push(ent, tick)
}

// catchUp flushes every wheel entry's per-tick internal state (idle
// battery draw, accumulators) through the last executed tick, so post-run
// observers (battery gauges, example snapshots) read exactly the state
// per-tick polling would have produced. Nothing fires during catch-up:
// every flushed tick is strictly before the entry's next due tick.
func (e *Engine) catchUp(env *Env) {
	now := e.clock.Tick()
	for _, ent := range e.entries {
		if ent.cad == nil || ent.suspended || ent.doneThrough >= now {
			continue
		}
		ent.cad.StepN(env, now-ent.doneThrough)
		ent.doneThrough = now
	}
}
