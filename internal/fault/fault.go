// Package fault implements deterministic, timeline-scripted fault
// injection for the BubbleZERO simulation. A Plan is an ordered set of
// Events — mote battery exhaustion, stuck or drifting sensor channels,
// motes dropping offline, burst packet loss and jammed-channel windows,
// chiller trips, pump degradation — each scheduled at an offset into the
// run and optionally cleared after a duration. Plans carry no randomness
// of their own: every injection lands on an exact simulated tick via the
// engine timeline, and all stochastic consequences (which packets die
// during a loss burst, say) flow through the engine RNG, so identical
// seeds replay identical fault runs bit for bit.
//
// The package is glue-free by design: events act through the small
// SensorTarget / NetworkTarget / PlantTarget interfaces, which
// internal/core adapts onto the real simulation objects and tests adapt
// onto fakes.
package fault

import (
	"fmt"
	"time"
)

// Kind enumerates the injectable fault types.
type Kind int

// The fault kinds. Battery faults are permanent (a drained mote stays
// dark); everything else clears when the event's window ends.
const (
	// KindBatteryDeplete empties a mote's battery outright.
	KindBatteryDeplete Kind = iota + 1
	// KindBatteryScale rescales a mote's remaining charge to
	// Magnitude∈(0,1] of its current value — fast-forward toward
	// exhaustion without simulating months of idle draw.
	KindBatteryScale
	// KindSensorStuck latches a sensor channel at its next reading.
	KindSensorStuck
	// KindSensorDrift accumulates calibration drift at Magnitude sensor
	// units per second; clearing the fault recalibrates the channel.
	KindSensorDrift
	// KindMoteOffline suspends the mote's device entirely (hard crash or
	// pulled mote); resuming puts it back on its sampling schedule.
	KindMoteOffline
	// KindBurstLoss adds Magnitude∈(0,1] to the network's packet-loss
	// floor for the window.
	KindBurstLoss
	// KindJam destroys every frame offered while the window is open.
	KindJam
	// KindChillerTrip holds the named loop's chiller off for the window.
	KindChillerTrip
	// KindPumpDegrade limits the named loop's pumps to Magnitude∈[0,1)
	// of their commanded flow for the window.
	KindPumpDegrade
)

var kindNames = map[Kind]string{
	KindBatteryDeplete: "battery-deplete",
	KindBatteryScale:   "battery-scale",
	KindSensorStuck:    "sensor-stuck",
	KindSensorDrift:    "sensor-drift",
	KindMoteOffline:    "mote-offline",
	KindBurstLoss:      "burst-loss",
	KindJam:            "jam",
	KindChillerTrip:    "chiller-trip",
	KindPumpDegrade:    "pump-degrade",
}

// String returns the kind's stable name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// ParseKind maps a stable kind name ("sensor-stuck", "jam", …) back to
// its Kind — the inverse of String, for wire-format parsing.
func ParseKind(s string) (Kind, error) {
	//bzlint:ordered names are unique, so at most one iteration matches regardless of order
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// Loop names a hydraulic loop for plant-side faults.
type Loop string

// The two chilled-water loops.
const (
	LoopRadiant Loop = "radiant"
	LoopVent    Loop = "vent"
)

// Event is one scheduled fault. Construct with the helper constructors;
// a hand-rolled Event must satisfy Validate.
type Event struct {
	// Kind selects the fault type.
	Kind Kind
	// At is the injection offset from the start of the run.
	At time.Duration
	// For is the fault duration; zero means the fault never clears.
	// Battery faults must leave it zero (charge does not come back).
	For time.Duration
	// Node names the target mote for sensor/battery faults.
	Node string
	// Loop names the target hydraulic loop for plant faults.
	Loop Loop
	// Magnitude is the kind-specific intensity (see the Kind constants).
	Magnitude float64
}

// BatteryScale returns an event rescaling node's remaining charge to
// frac of its current value at offset at.
func BatteryScale(at time.Duration, node string, frac float64) Event {
	return Event{Kind: KindBatteryScale, At: at, Node: node, Magnitude: frac}
}

// SensorStuck returns an event latching node's channel for d.
func SensorStuck(at, d time.Duration, node string) Event {
	return Event{Kind: KindSensorStuck, At: at, For: d, Node: node}
}

// SensorDrift returns an event drifting node's channel at ratePerS
// sensor units per second for d.
func SensorDrift(at, d time.Duration, node string, ratePerS float64) Event {
	return Event{Kind: KindSensorDrift, At: at, For: d, Node: node, Magnitude: ratePerS}
}

// MoteOffline returns an event taking node's device offline for d.
func MoteOffline(at, d time.Duration, node string) Event {
	return Event{Kind: KindMoteOffline, At: at, For: d, Node: node}
}

// BurstLoss returns an event adding p to the packet-loss floor for d.
func BurstLoss(at, d time.Duration, p float64) Event {
	return Event{Kind: KindBurstLoss, At: at, For: d, Magnitude: p}
}

// Jam returns an event jamming the channel for d.
func Jam(at, d time.Duration) Event {
	return Event{Kind: KindJam, At: at, For: d}
}

// ChillerTrip returns an event tripping loop's chiller for d.
func ChillerTrip(at, d time.Duration, loop Loop) Event {
	return Event{Kind: KindChillerTrip, At: at, For: d, Loop: loop}
}

// PumpDegrade returns an event limiting loop's pumps to frac of their
// commanded flow for d.
func PumpDegrade(at, d time.Duration, loop Loop, frac float64) Event {
	return Event{Kind: KindPumpDegrade, At: at, For: d, Loop: loop, Magnitude: frac}
}

// String renders the event for logs and schedule names.
func (e Event) String() string {
	s := fmt.Sprintf("%s@%s", e.Kind, e.At)
	if e.Node != "" {
		s += "/" + e.Node
	}
	if e.Loop != "" {
		s += "/" + string(e.Loop)
	}
	return s
}

// needsNode reports whether the kind targets a mote.
func (k Kind) needsNode() bool {
	switch k {
	case KindBatteryDeplete, KindBatteryScale, KindSensorStuck, KindSensorDrift, KindMoteOffline:
		return true
	}
	return false
}

// needsLoop reports whether the kind targets a hydraulic loop.
func (k Kind) needsLoop() bool {
	return k == KindChillerTrip || k == KindPumpDegrade
}

// Validate checks the event's internal consistency.
func (e Event) Validate() error {
	if _, ok := kindNames[e.Kind]; !ok {
		return fmt.Errorf("fault: unknown kind %d", int(e.Kind))
	}
	if e.At < 0 {
		return fmt.Errorf("fault: %s: At must be >= 0, got %v", e, e.At)
	}
	if e.For < 0 {
		return fmt.Errorf("fault: %s: For must be >= 0, got %v", e, e.For)
	}
	if e.Kind.needsNode() && e.Node == "" {
		return fmt.Errorf("fault: %s: Node is required", e.Kind)
	}
	if !e.Kind.needsNode() && e.Node != "" {
		return fmt.Errorf("fault: %s: Node must be empty", e.Kind)
	}
	if e.Kind.needsLoop() {
		if e.Loop != LoopRadiant && e.Loop != LoopVent {
			return fmt.Errorf("fault: %s: Loop must be %q or %q, got %q",
				e.Kind, LoopRadiant, LoopVent, e.Loop)
		}
	} else if e.Loop != "" {
		return fmt.Errorf("fault: %s: Loop must be empty", e.Kind)
	}
	switch e.Kind {
	case KindBatteryDeplete, KindBatteryScale:
		if e.For != 0 {
			return fmt.Errorf("fault: %s: battery faults are permanent, For must be 0", e)
		}
	}
	switch e.Kind {
	case KindBatteryScale:
		if e.Magnitude <= 0 || e.Magnitude > 1 {
			return fmt.Errorf("fault: %s: Magnitude must be in (0, 1], got %v", e, e.Magnitude)
		}
	case KindBurstLoss:
		if e.Magnitude <= 0 || e.Magnitude > 1 {
			return fmt.Errorf("fault: %s: Magnitude must be in (0, 1], got %v", e, e.Magnitude)
		}
	case KindSensorDrift:
		//bzlint:allow floateq validating a user-authored config value against its zero default
		if e.Magnitude == 0 {
			return fmt.Errorf("fault: %s: Magnitude (drift rate) must be non-zero", e)
		}
	case KindPumpDegrade:
		if e.Magnitude < 0 || e.Magnitude >= 1 {
			return fmt.Errorf("fault: %s: Magnitude must be in [0, 1), got %v", e, e.Magnitude)
		}
	default:
		//bzlint:allow floateq validating a user-authored config value against its zero default
		if e.Magnitude != 0 {
			return fmt.Errorf("fault: %s: Magnitude must be 0", e)
		}
	}
	return nil
}

// Plan is an ordered collection of fault events. The zero value (and a
// nil *Plan) is the empty plan, which injects nothing.
type Plan struct {
	events []Event
}

// NewPlan validates the events and assembles a plan. Events may share
// injection times; same-tick application order is the argument order.
func NewPlan(events ...Event) (*Plan, error) {
	p := &Plan{events: append([]Event(nil), events...)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustPlan is NewPlan that panics on error, for static scenario tables.
func MustPlan(events ...Event) *Plan {
	p, err := NewPlan(events...)
	if err != nil {
		panic(err)
	}
	return p
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.events) == 0 }

// Validate checks every event.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
	}
	return nil
}
