package sim

// regOpts collects the effect of the options passed to one Register call.
type regOpts struct {
	onDemand  bool
	faultable bool
}

// RegOption configures a single Engine.Register call.
type RegOption func(*regOpts)

// WithOnDemand registers the component to be stepped, at its position in
// the registration order, only on ticks during which Registration.Wake
// was called. A wake during tick T from a component ordered before it
// steps the component on tick T itself; a wake after its position (or
// from outside the run loop) steps it on the next processed tick. The
// flag persists until the component is stepped, so a wake is never lost.
func WithOnDemand() RegOption {
	return func(o *regOpts) { o.onDemand = true }
}

// WithFaultable enables Registration.Suspend and Resume on the returned
// handle, so fault injectors can take the component offline mid-run. The
// option costs nothing at steady state: suspension is a per-entry flag
// checked on the paths the scheduler already walks.
func WithFaultable() RegOption {
	return func(o *regOpts) { o.faultable = true }
}

// Registration is the scheduling handle returned by Engine.Register. The
// zero value is not meaningful; handles are only created by Register.
type Registration struct {
	e         *Engine
	ent       *entry
	faultable bool
}

// Wake marks an on-demand component to be stepped on the current (or
// next) processed tick. Panics if the component was not registered
// WithOnDemand.
func (r *Registration) Wake() {
	if !r.ent.onDemand {
		panic("sim: Registration.Wake: component " + r.ent.c.Name() + " not registered WithOnDemand")
	}
	r.ent.woken = true
}

// Suspend takes the component offline: the scheduler stops delivering
// Step/StepN calls (including end-of-run catch-up) until Resume. A
// suspended due-wheel entry keeps its slot but each poll is a no-op, so
// suspension and resumption are quantized to the entry's own due ticks —
// at most one cadence period of latency, which is far below any fault
// duration of interest. Ticks that elapsed before the suspension are
// flushed first, so the component's internal accumulators stay exact.
// Panics if the component was not registered WithFaultable.
func (r *Registration) Suspend() {
	r.checkFaultable("Suspend")
	ent := r.ent
	if !ent.suspended && ent.cad != nil {
		if now := r.e.clock.Tick(); ent.doneThrough < now {
			ent.cad.StepN(r.e.env, now-ent.doneThrough)
			ent.doneThrough = now
		}
	}
	ent.suspended = true
}

// Resume puts a suspended component back on its schedule. The ticks
// spent suspended are not replayed: the component's accumulators are
// frozen across the outage, as if the hardware had been powered off.
// Panics if the component was not registered WithFaultable.
func (r *Registration) Resume() {
	r.checkFaultable("Resume")
	ent := r.ent
	ent.suspended = false
	// Skip the suspended span so the next due poll does not replay it.
	if ent.cad != nil {
		if now := r.e.clock.Tick(); ent.doneThrough < now {
			ent.doneThrough = now
		}
	}
}

func (r *Registration) checkFaultable(op string) {
	if !r.faultable {
		panic("sim: Registration." + op + ": component " + r.ent.c.Name() + " not registered WithFaultable")
	}
}

// Register adds c to the engine at the next position in step order and
// returns its scheduling handle. With no options the component is stepped
// every tick, unless it implements Cadenced, in which case it is placed
// on the due-wheel and stepped only on the ticks its own accumulators say
// are due. WithOnDemand parks the component until the handle's Wake is
// called; WithFaultable additionally arms the handle's Suspend/Resume.
// Register components between runs, not from inside a Step call.
func (e *Engine) Register(c Component, opts ...RegOption) *Registration {
	var o regOpts
	for _, opt := range opts {
		opt(&o)
	}
	ent := &entry{c: c, idx: int32(len(e.entries)), regTick: e.clock.Tick()}
	reg := &Registration{e: e, ent: ent, faultable: o.faultable}
	if o.onDemand {
		ent.onDemand = true
		e.entries = append(e.entries, ent)
		e.always = append(e.always, ent)
		return reg
	}
	ent.doneThrough = e.clock.Tick()
	e.entries = append(e.entries, ent)
	if cad, ok := c.(Cadenced); ok {
		ent.cad = cad
		ent.nextDue = ent.doneThrough + cad.NextDue(e.dtS) - 1
		e.wheel.push(ent, e.clock.Tick())
	} else {
		e.always = append(e.always, ent)
	}
	return reg
}
