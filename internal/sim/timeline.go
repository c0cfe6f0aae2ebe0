package sim

import (
	"container/heap"
	"time"
)

// Event is a one-shot action scheduled on the timeline.
type Event struct {
	At   time.Time
	Name string
	Fn   func(env *Env)

	seq uint64 // insertion order tiebreak for deterministic firing
}

// Timeline schedules one-shot events at absolute simulated instants. Events
// fire at the first tick whose time is >= the scheduled instant, in
// (time, insertion) order.
type Timeline struct {
	h   eventHeap
	seq uint64
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{}
}

// At schedules fn to run at instant t.
func (tl *Timeline) At(t time.Time, name string, fn func(env *Env)) {
	tl.seq++
	heap.Push(&tl.h, &Event{At: t, Name: name, Fn: fn, seq: tl.seq})
}

// Len reports the number of pending events.
//
//bzlint:allow testonly fault.TestApplyRejectsUnknownNodeEagerly checks a failed Apply schedules nothing
func (tl *Timeline) Len() int { return tl.h.Len() }

// fire runs all events due at or before env.Now(). The current time is
// only materialised when events are pending, keeping the empty-timeline
// per-tick cost to a length check.
func (tl *Timeline) fire(env *Env) {
	if tl.h.Len() == 0 {
		return
	}
	now := env.Now()
	for tl.h.Len() > 0 && !tl.h[0].At.After(now) {
		ev, ok := heap.Pop(&tl.h).(*Event)
		if !ok {
			return
		}
		ev.Fn(env)
	}
}

// dropThrough discards, without firing, every pending event scheduled at
// or before t. Restore-from-snapshot uses it: a rebuilt system re-schedules
// its full timeline, then drops the prefix the original run had already
// fired (their effects are part of the captured state).
func (tl *Timeline) dropThrough(t time.Time) {
	for tl.h.Len() > 0 && !tl.h[0].At.After(t) {
		heap.Pop(&tl.h)
	}
}

type eventHeap []*Event

var _ heap.Interface = (*eventHeap)(nil)

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].At.Equal(h[j].At) {
		return h[i].seq < h[j].seq
	}
	return h[i].At.Before(h[j].At)
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		return
	}
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
