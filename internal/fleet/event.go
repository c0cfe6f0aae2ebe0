package fleet

import (
	"fmt"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fault"
	"bubblezero/internal/psychro"
	"bubblezero/internal/runner"
	"bubblezero/internal/thermal"
)

// EventKind enumerates the live mutations a running fleet accepts.
type EventKind int

// The event kinds. Climate is fleet-wide; Door and Fault target one
// building.
const (
	// EventClimate installs a new outdoor boundary (dry bulb + dew point)
	// on every building.
	EventClimate EventKind = iota + 1
	// EventDoor opens the target building's door for the given duration.
	EventDoor
	// EventFault schedules fault injections on the target building, with
	// offsets relative to the instant the event is applied.
	EventFault
)

var eventKindNames = map[EventKind]string{
	EventClimate: "climate",
	EventDoor:    "door",
	EventFault:   "fault",
}

// String returns the kind's stable name.
func (k EventKind) String() string {
	if s, ok := eventKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fleet.EventKind(%d)", int(k))
}

// ParseEventKind resolves a kind name ("climate", "door", "fault").
func ParseEventKind(s string) (EventKind, error) {
	//bzlint:ordered names are unique, so at most one iteration matches regardless of order
	for k, name := range eventKindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fleet: unknown event kind %q", s)
}

// Event is a live mutation of a running fleet — the ONLY way state enters
// one after construction. Events are queued by Apply and take effect at
// the next epoch boundary, so every building sees them at the same tick
// whichever worker steps it; the applied tick is journaled for snapshot
// replay.
type Event struct {
	Kind EventKind

	// Building targets Door and Fault events; ignored for Climate.
	Building int

	// TC and DewC are the new outdoor dry bulb and dew point (°C) for
	// Climate events.
	TC, DewC float64

	// Door is how long the door stays open for Door events.
	Door time.Duration

	// Faults are the injections for Fault events. Their At offsets are
	// relative to the epoch boundary where the event lands, not the start
	// of the run.
	Faults []fault.Event
}

// Validate checks the event against a fleet of the given size.
func (e Event) Validate(buildings int) error {
	switch e.Kind {
	case EventClimate:
		// Out-of-range temperatures reach the Magnus formula unchecked (a
		// huge one turns every zone NaN), and a dew point above the dry
		// bulb is supersaturated air. The negated tests also reject NaN.
		inRange := func(c float64) bool { return c >= psychro.MagnusMinC && c <= psychro.MagnusMaxC }
		if !inRange(e.TC) || !inRange(e.DewC) {
			return fmt.Errorf("fleet: climate event dry bulb %v °C and dew point %v °C must lie within [%v, %v] °C",
				e.TC, e.DewC, psychro.MagnusMinC, psychro.MagnusMaxC)
		}
		if e.DewC > e.TC {
			return fmt.Errorf("fleet: climate event dew point %v °C above dry bulb %v °C", e.DewC, e.TC)
		}
		return nil
	case EventDoor:
		if e.Building < 0 || e.Building >= buildings {
			return fmt.Errorf("fleet: door event building %d out of range [0, %d)", e.Building, buildings)
		}
		if e.Door <= 0 {
			return fmt.Errorf("fleet: door event duration must be > 0, got %v", e.Door)
		}
		return nil
	case EventFault:
		if e.Building < 0 || e.Building >= buildings {
			return fmt.Errorf("fleet: fault event building %d out of range [0, %d)", e.Building, buildings)
		}
		if len(e.Faults) == 0 {
			return fmt.Errorf("fleet: fault event carries no fault events")
		}
		for i, fe := range e.Faults {
			if err := fe.Validate(); err != nil {
				return fmt.Errorf("fleet: fault event %d: %w", i, err)
			}
		}
		return nil
	}
	return fmt.Errorf("fleet: unknown event kind %d", int(e.Kind))
}

// AppliedEvent is one journal entry: the event plus the epoch boundary
// (in completed ticks) where it took effect. The journal is part of a
// fleet snapshot — fault events schedule timeline closures, which cannot
// be serialized, so restore replays them structurally at the same
// instants before patching component state.
type AppliedEvent struct {
	Event Event
	Tick  uint64
}

// Apply queues an event for application at the next epoch boundary (the
// top of the next RunTicks epoch). It is safe to call concurrently with a
// running RunTicks — the HTTP injection path does.
func (f *Fleet) Apply(ev Event) error {
	if err := ev.Validate(len(f.buildings)); err != nil {
		return err
	}
	f.evMu.Lock()
	f.pendingEv = append(f.pendingEv, ev)
	f.evMu.Unlock()
	return nil
}

// Journal returns a copy of the applied-event journal.
func (f *Fleet) Journal() []AppliedEvent {
	f.evMu.Lock()
	defer f.evMu.Unlock()
	return append([]AppliedEvent(nil), f.journal...)
}

// drainEvents applies every queued event at the current epoch boundary
// and journals it. Called single-threaded between epochs; the steady-state
// fast path (nothing queued) performs no allocations. An event that fails
// fails the fleet (stepErr): it may have changed some buildings, and the
// journal holds neither it nor the rest of its batch.
func (f *Fleet) drainEvents() error {
	f.evMu.Lock()
	if len(f.pendingEv) == 0 {
		f.evMu.Unlock()
		return nil
	}
	batch := f.pendingEv
	f.pendingEv = nil
	f.evMu.Unlock()

	for _, ev := range batch {
		if err := f.applyNow(ev, f.ticks); err != nil {
			f.stepErr = fmt.Errorf("fleet: %s event at tick %d: %w", ev.Kind, f.ticks, err)
			return f.stepErr
		}
		f.evMu.Lock()
		f.journal = append(f.journal, AppliedEvent{Event: ev, Tick: f.ticks})
		f.evMu.Unlock()
	}
	return nil
}

// applyNow applies one event at the boundary after `tick` completed
// ticks. Restore replays fault events through the same function with the
// journaled tick, so the scheduled instants reproduce exactly. Each
// building changes under its own lock, as readers may be looking at the
// others. Neither caller runs on the pool, so applyNow recovers a panic
// into its error itself; the building's lock is released on the way out.
//
//bzlint:mutroute fleet.Apply the route itself: every journaled event lands here
func (f *Fleet) applyNow(ev Event, tick uint64) (err error) {
	defer runner.Recover(&err)
	switch ev.Kind {
	case EventClimate:
		// One precomputed Climate, installed on every room by assignment.
		// It goes through thermal.NewClimate, so it is bit-identical to each
		// room recomputing its own boundary terms.
		c := thermal.NewClimate(psychro.NewStateDewPoint(ev.TC, ev.DewC, 0), f.cfg.Base.Thermal.OutdoorCO2PPM)
		for i := range f.buildings {
			f.buildings[i].update(func(sys *core.System) { sys.Room().SetClimate(c) })
		}
		return nil
	case EventDoor:
		f.buildings[ev.Building].update(func(sys *core.System) { sys.Room().OpenDoor(ev.Door) })
		return nil
	case EventFault:
		plan, err := fault.NewPlan(ev.Faults...)
		if err != nil {
			return err
		}
		base := f.cfg.Base.Start.Add(time.Duration(tick) * f.step)
		f.buildings[ev.Building].update(func(sys *core.System) { err = sys.ApplyFaults(base, plan) })
		return err
	}
	return fmt.Errorf("fleet: unknown event kind %d", int(ev.Kind))
}
