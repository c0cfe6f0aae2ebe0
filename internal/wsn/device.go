package wsn

import (
	"fmt"

	"bubblezero/internal/adaptive"
	"bubblezero/internal/energy"
	"bubblezero/internal/sim"
)

// TxMode selects how a sensor device schedules its transmissions.
type TxMode int

// Transmission modes: BT-ADPT is the paper's adaptive scheme; Fixed is the
// conservative baseline that transmits every sampling period (§V-C's
// "Fixed scheme which conservatively sets T_snd to be the same as T_spl").
const (
	ModeAdaptive TxMode = iota + 1
	ModeFixed
)

// SensorDevice is a mote wired to one sensor channel: it samples the
// plant every T_spl seconds via the read callback, runs either the
// adaptive scheduler or the fixed schedule, and broadcasts typed readings.
// Battery devices pay idle, sampling, and transmission energy.
type SensorDevice struct {
	node *Node
	net  *Network
	typ  MsgType
	zone int
	read func() float64
	mode TxMode

	sched       *adaptive.Scheduler
	tsplS       float64
	sinceSample float64

	// onSample observes every sampling event (for Tsnd traces).
	onSample func(value, tsndS float64, transition bool)

	// Fault-injection state (see internal/fault). A stuck channel latches
	// the first reading taken after the fault lands; a drifting channel
	// accumulates driftPerS units of bias per second of simulated time,
	// advanced per sample so the fault-free sampling path is untouched.
	stuck     bool
	stuckHeld bool
	stuckVal  float64
	driftPerS float64
	driftBias float64
}

var _ sim.Cadenced = (*SensorDevice)(nil)

// SensorDeviceConfig assembles a SensorDevice.
type SensorDeviceConfig struct {
	// Node is the registered mote this device runs on.
	Node *Node
	// Network is the shared medium.
	Network *Network
	// Type is the message type the device publishes.
	Type MsgType
	// Zone is the subspace the reading concerns (-1 if not zonal).
	Zone int
	// Read returns the current true sensor reading.
	Read func() float64
	// Mode selects adaptive or fixed scheduling.
	Mode TxMode
	// TsplS is the sampling period in seconds.
	TsplS float64
	// Scheduler overrides the default adaptive scheduler configuration
	// (optional; ignored in fixed mode).
	Scheduler *adaptive.Scheduler
}

// NewSensorDevice validates and builds a device.
func NewSensorDevice(cfg SensorDeviceConfig) (*SensorDevice, error) {
	if cfg.Node == nil || cfg.Network == nil {
		return nil, fmt.Errorf("wsn: sensor device needs node and network")
	}
	if cfg.Read == nil {
		return nil, fmt.Errorf("wsn: sensor device %q needs a read function", cfg.Node.ID())
	}
	if cfg.TsplS <= 0 {
		return nil, fmt.Errorf("wsn: sensor device %q TsplS must be > 0", cfg.Node.ID())
	}
	d := &SensorDevice{
		node:  cfg.Node,
		net:   cfg.Network,
		typ:   cfg.Type,
		zone:  cfg.Zone,
		read:  cfg.Read,
		mode:  cfg.Mode,
		tsplS: cfg.TsplS,
	}
	switch cfg.Mode {
	case ModeAdaptive:
		d.sched = cfg.Scheduler
		if d.sched == nil {
			s, err := adaptive.NewScheduler(adaptive.DefaultConfig(cfg.TsplS))
			if err != nil {
				return nil, err
			}
			d.sched = s
		}
	case ModeFixed:
		// Fixed mode sends on every sample; no scheduler needed.
	default:
		return nil, fmt.Errorf("wsn: sensor device %q has invalid mode %d", cfg.Node.ID(), cfg.Mode)
	}
	return d, nil
}

// Name implements sim.Component.
func (d *SensorDevice) Name() string {
	return fmt.Sprintf("wsn.sensor.%s", d.node.ID())
}

// Node returns the underlying mote.
func (d *SensorDevice) Node() *Node { return d.node }

// Scheduler returns the adaptive scheduler (nil in fixed mode).
func (d *SensorDevice) Scheduler() *adaptive.Scheduler { return d.sched }

// TsndS returns the transmission period currently in effect.
func (d *SensorDevice) TsndS() float64 {
	if d.sched != nil {
		return d.sched.TsndS()
	}
	return d.tsplS
}

// OnSample registers a callback invoked at every sampling event with the
// reading, the T_snd in effect, and whether a transition was flagged.
func (d *SensorDevice) OnSample(fn func(value, tsndS float64, transition bool)) {
	d.onSample = fn
}

// SetStuck latches (on) or releases (off) the sensor channel. While
// stuck, every sample repeats the first reading taken after the latch —
// the classic failure of a wedged ADC or a detached probe. Releasing
// clears the latch so the next sample reads the live plant again.
func (d *SensorDevice) SetStuck(on bool) {
	d.stuck = on
	if !on {
		d.stuckHeld = false
	}
}

// SetDrift sets the channel's calibration drift rate in sensor units per
// second of simulated time. A rate of zero clears the accumulated bias —
// fault clearance models the mote being recalibrated or swapped.
func (d *SensorDevice) SetDrift(ratePerS float64) {
	d.driftPerS = ratePerS
	//bzlint:allow floateq zero is the documented clear-drift sentinel, set literally by fault clearance
	if ratePerS == 0 {
		d.driftBias = 0
	}
}

// Step implements sim.Component.
func (d *SensorDevice) Step(env *sim.Env) { d.StepN(env, 1) }

// StepN implements sim.Cadenced: n consecutive ticks of idle battery
// draw and sampling-accumulator bookkeeping, bit-identical to n Step
// calls. The idle drain stays one Battery.Drain per tick — float
// addition is not associative, so batching k drains into one would
// change the battery trajectory.
//
//bzlint:hotpath
func (d *SensorDevice) StepN(env *sim.Env, n uint64) {
	dt := env.Dt()
	b := d.node.Battery()
	idle := energy.IdlePowerW * dt
	for ; n > 0; n-- {
		if b != nil {
			b.Drain(idle)
		}
		d.sinceSample += dt
		for d.sinceSample >= d.tsplS {
			d.sinceSample -= d.tsplS
			d.sampleOnce()
		}
	}
}

// NextDue implements sim.Cadenced by replaying the sampling accumulator's
// exact float arithmetic, so the predicted tick matches per-tick polling
// bit-for-bit even when dt is not exactly representable (e.g. a 100 ms
// step). A stalled accumulator (dt below the float resolution of the
// period — a configuration where per-tick polling would never fire
// either) parks the device effectively forever.
func (d *SensorDevice) NextDue(dtS float64) uint64 {
	return nextAccumDue(d.sinceSample, dtS, d.tsplS)
}

// neverDue is the wheel distance used for a schedule that cannot fire:
// far enough to outlast any practical run, small enough that adding it to
// the current tick cannot overflow.
const neverDue = uint64(1) << 62

// nextAccumDue replays `since += dt` until it crosses period, returning
// the number of ticks until the crossing.
func nextAccumDue(since, dtS, periodS float64) uint64 {
	var n uint64
	for {
		n++
		next := since + dtS
		if next >= periodS {
			return n
		}
		//bzlint:allow floateq float fixed-point stall guard: dt too small to advance the accumulator
		if next == since {
			return neverDue
		}
		since = next
	}
}

func (d *SensorDevice) sampleOnce() {
	b := d.node.Battery()
	if b != nil {
		if b.Depleted() {
			return
		}
		b.Drain(energy.SampleEnergyJ)
	}
	value := d.read()
	if d.stuck {
		if !d.stuckHeld {
			d.stuckHeld, d.stuckVal = true, value
		}
		value = d.stuckVal
	}
	//bzlint:allow floateq zero is the no-drift sentinel, set literally by SetDrift
	if d.driftPerS != 0 {
		// One sample per T_spl, so per-sample accumulation integrates the
		// rate over simulated time without touching the per-tick loop.
		d.driftBias += d.driftPerS * d.tsplS
		value += d.driftBias
	}

	var send bool
	var tsnd float64
	var transition bool
	if d.mode == ModeAdaptive {
		ev := d.sched.OnSample(value)
		send = ev.Send
		tsnd = ev.TsndS
		transition = ev.Transition
	} else {
		send = true
		tsnd = d.tsplS
	}
	if d.onSample != nil {
		d.onSample(value, tsnd, transition)
	}
	if !send {
		return
	}
	msg := Message{Type: d.typ, Zone: d.zone, Value: value}
	// A depleted battery fails the broadcast: the mote is silently
	// offline, like a real one.
	_ = d.net.Broadcast(d.node, msg)
}

// PeriodicBroadcaster is an AC-powered board publishing a processed value
// (e.g. Control-C-1's T_supp) on a fixed period.
type PeriodicBroadcaster struct {
	node    *Node
	net     *Network
	typ     MsgType
	zone    int
	read    func() float64
	periodS float64
	since   float64
}

var _ sim.Cadenced = (*PeriodicBroadcaster)(nil)

// NewPeriodicBroadcaster builds a periodic publisher.
func NewPeriodicBroadcaster(node *Node, net *Network, typ MsgType, zone int,
	periodS float64, read func() float64) (*PeriodicBroadcaster, error) {
	if node == nil || net == nil || read == nil {
		return nil, fmt.Errorf("wsn: periodic broadcaster needs node, network, and read fn")
	}
	if periodS <= 0 {
		return nil, fmt.Errorf("wsn: periodic broadcaster %q period must be > 0", node.ID())
	}
	return &PeriodicBroadcaster{
		node: node, net: net, typ: typ, zone: zone, periodS: periodS, read: read,
		since: periodS, // first broadcast on the first tick
	}, nil
}

// Name implements sim.Component.
func (p *PeriodicBroadcaster) Name() string {
	return fmt.Sprintf("wsn.periodic.%s", p.node.ID())
}

// Step implements sim.Component.
func (p *PeriodicBroadcaster) Step(env *sim.Env) { p.StepN(env, 1) }

// StepN implements sim.Cadenced: n ticks of period accumulation with at
// most one broadcast per tick, exactly as n Step calls would behave.
//
//bzlint:hotpath
func (p *PeriodicBroadcaster) StepN(env *sim.Env, n uint64) {
	dt := env.Dt()
	for ; n > 0; n-- {
		p.since += dt
		if p.since >= p.periodS {
			p.since = 0
			_ = p.net.Broadcast(p.node, Message{Type: p.typ, Zone: p.zone, Value: p.read()})
		}
	}
}

// NextDue implements sim.Cadenced (see SensorDevice.NextDue).
func (p *PeriodicBroadcaster) NextDue(dtS float64) uint64 {
	return nextAccumDue(p.since, dtS, p.periodS)
}
