package sim

// Cadenced is an optional extension of Component for participants whose
// observable work happens only on a sparse, self-predictable set of ticks
// (sensor sampling loops, periodic broadcasters). Engine.Register places a
// Cadenced component on the due-wheel: instead of a Step call on every
// tick it receives one StepN call on each due tick covering every tick
// since the previous one. Always-on physics (thermal zones, hydraulic
// loops, PID controllers that integrate over dt) should implement only
// Component and stay on the every-tick path.
//
// The due schedule must be a pure function of the component's own state:
// nothing outside the component may change when it next needs to run. A
// component whose cadence can be altered by other components between its
// due ticks must be registered as an ordinary every-tick Component.
type Cadenced interface {
	Component

	// StepN advances the component by n consecutive ticks ending at the
	// engine's current tick, exactly equivalent to n successive Step
	// calls. The engine guarantees that no tick in the range except
	// possibly the last is due, so implementations replay their per-tick
	// bookkeeping (accumulators, idle energy draw) in a tight loop and
	// perform observable work only when their own state says it is time.
	// During end-of-run catch-up no tick in the range is due;
	// implementations must not assume the final tick fires.
	StepN(env *Env, n uint64)

	// NextDue returns how many ticks after the current one the component
	// next performs observable work (always >= 1), given the fixed step
	// duration in seconds. Implementations replay the exact float
	// arithmetic of their accumulators so the predicted tick is
	// bit-identical to the tick on which per-tick polling would have
	// fired.
	NextDue(dtS float64) uint64
}

// entry is the engine-side scheduling record for one registered component.
type entry struct {
	c   Component
	cad Cadenced // non-nil for due-wheel entries
	idx int      // registration index: the data-flow step order

	// nextDue is the absolute tick of the next due step and doneThrough
	// the number of ticks already applied to the component (ticks
	// [0, doneThrough) are covered). Wheel entries only.
	nextDue     uint64
	doneThrough uint64

	onDemand bool // stepped only on ticks it was woken for
	woken    bool

	// suspended entries are skipped by every delivery path (always list,
	// wheel polls, catch-up) until their Registration resumes them.
	suspended bool

	steps   uint64 // due-tick activations
	regTick uint64 // clock tick at registration, for skip accounting
}

// wheelSlots is the hashed wheel's horizon in ticks. Power of two, so the
// slot index is a mask. Cadences shorter than the horizon (the dense case
// at coarse steps — sampling every 2–5 ticks) live in the slot ring and
// schedule with O(1) appends; longer cadences wait in a far-horizon
// min-heap that costs one comparison per tick until they approach.
const wheelSlots = 64

// dueWheel is a hashed tick wheel: slot tick&(wheelSlots-1) holds exactly
// the entries due on that tick (entries are only ringed when their due
// tick is less than a full horizon away, so a slot can never hold a
// not-yet-due entry when the engine visits it).
type dueWheel struct {
	slots [wheelSlots][]*entry
	far   farHeap
	spare []*entry // rotates with slot backings so takeDue never allocates
	count int      // total entries in slots + far
}

// push schedules ent (whose nextDue is already set) relative to the
// current tick.
func (w *dueWheel) push(ent *entry, tick uint64) {
	w.count++
	if ent.nextDue-tick < wheelSlots {
		w.ring(ent)
		return
	}
	w.far.push(ent)
}

// ring appends ent to its slot. Slot backings rotate through takeDue's
// spare buffer, so with plain append-doubling each of the ~wheelSlots+1
// circulating backings would re-allocate several times on its way up from
// empty — tens of thousands of steady-state allocations across a fleet of
// engines. A slot can never hold more than the wheel's total entry count,
// so on growth the backing jumps straight to that capacity: at most one
// allocation per circulating backing for the engine's life.
func (w *dueWheel) ring(ent *entry) {
	s := ent.nextDue & (wheelSlots - 1)
	slot := w.slots[s]
	if len(slot) == cap(slot) {
		grown := make([]*entry, len(slot), w.count)
		copy(grown, slot)
		slot = grown
	}
	w.slots[s] = append(slot, ent)
}

// takeDue removes and returns the entries due on tick, sorted by
// registration index. The returned slice is only valid until the next
// takeDue call.
func (w *dueWheel) takeDue(tick uint64) []*entry {
	// Ring far entries that entered the horizon. One comparison per tick
	// while the earliest far entry is still distant.
	for len(w.far) > 0 && w.far[0].nextDue-tick < wheelSlots {
		w.ring(w.far.pop())
	}
	s := tick & (wheelSlots - 1)
	due := w.slots[s]
	if len(due) == 0 {
		return nil
	}
	// Hand the slot a fresh backing (the processed buffer from last time)
	// before stepping: an entry rescheduled exactly one horizon ahead
	// lands back in this same slot and must not join the batch in flight.
	w.slots[s] = w.spare[:0]
	w.spare = due
	w.count -= len(due)
	// Entries arrive grouped by the tick that scheduled them, so the
	// batch is a handful of idx-sorted runs; insertion sort restores the
	// global registration order cheaply.
	for i := 1; i < len(due); i++ {
		ent := due[i]
		j := i - 1
		for j >= 0 && due[j].idx > ent.idx {
			due[j+1] = due[j]
			j--
		}
		due[j+1] = ent
	}
	return due
}

// farHeap is a binary min-heap of entries ordered by due tick (ties by
// registration index). Hand-rolled rather than container/heap so the
// occasional horizon crossing stays free of interface conversions.
type farHeap []*entry

func (e *entry) before(o *entry) bool {
	if e.nextDue != o.nextDue {
		return e.nextDue < o.nextDue
	}
	return e.idx < o.idx
}

func (w *farHeap) push(ent *entry) {
	h := append(*w, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*w = h
}

func (w *farHeap) pop() *entry {
	h := *w
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	*w = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// ComponentStats describes one component's scheduling over the engine's
// lifetime.
type ComponentStats struct {
	// Name is the component name.
	Name string
	// Kind is "every-tick", "cadenced", or "on-demand".
	Kind string
	// Steps counts the ticks on which the scheduler activated the
	// component (a Step call, or a StepN call on a due tick; end-of-run
	// catch-up is not an activation).
	Steps uint64
	// Skipped counts the processed ticks on which the component was not
	// activated.
	Skipped uint64
}

// StepStats reports per-component step/skip counters in registration
// order — the observable evidence that cadenced and on-demand components
// run only on the ticks that need them.
func (e *Engine) StepStats() []ComponentStats {
	out := make([]ComponentStats, len(e.entries))
	now := e.clock.Tick()
	for i, ent := range e.entries {
		kind := "every-tick"
		switch {
		case ent.cad != nil:
			kind = "cadenced"
		case ent.onDemand:
			kind = "on-demand"
		}
		ticks := now - ent.regTick
		out[i] = ComponentStats{
			Name:    ent.c.Name(),
			Kind:    kind,
			Steps:   ent.steps,
			Skipped: ticks - ent.steps,
		}
	}
	return out
}
