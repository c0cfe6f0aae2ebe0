package fleet

import (
	"fmt"
	"time"

	"bubblezero/internal/fault"
	"bubblezero/internal/psychro"
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
// regardless of sharding; the applied tick is journaled for snapshot
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
// fast path (nothing queued) performs no allocations.
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
			return err
		}
		f.evMu.Lock()
		f.journal = append(f.journal, AppliedEvent{Event: ev, Tick: f.ticks})
		f.evMu.Unlock()
	}
	return nil
}

// applyNow applies one event at the boundary after `tick` completed
// ticks. Restore replays fault events through the same function with the
// journaled tick, so the scheduled instants reproduce exactly.
//
//bzlint:mutroute fleet.Apply the route itself: every journaled event lands here
func (f *Fleet) applyNow(ev Event, tick uint64) error {
	switch ev.Kind {
	case EventClimate:
		// One precomputed Climate, installed on every room by assignment.
		// It goes through thermal.NewClimate, so it is bit-identical to each
		// room recomputing its own boundary terms.
		c := thermal.NewClimate(psychro.NewStateDewPoint(ev.TC, ev.DewC, 0), f.cfg.Base.Thermal.OutdoorCO2PPM)
		for _, sys := range f.buildings {
			sys.Room().SetClimate(c)
		}
		return nil
	case EventDoor:
		f.buildings[ev.Building].Room().OpenDoor(ev.Door)
		return nil
	case EventFault:
		plan, err := fault.NewPlan(ev.Faults...)
		if err != nil {
			return err
		}
		base := f.cfg.Base.Start.Add(time.Duration(tick) * f.step)
		return f.buildings[ev.Building].ApplyFaults(base, plan)
	}
	return fmt.Errorf("fleet: unknown event kind %d", int(ev.Kind))
}
