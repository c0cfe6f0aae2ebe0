package fleet

import (
	"context"
	"errors"
	"fmt"

	"bubblezero/internal/core"
)

// State is a fleet snapshot: the tick count, the applied-event journal,
// and every building's full mutable state. Export only between RunTicks
// calls — every epoch exit flushes each engine's cadence wheel, so that
// point is quiescent — and restore only into a freshly constructed Fleet
// built from the same Config. Construction is deterministic, so the
// rebuilt topology matches position for position; journaled fault events
// scheduled timeline closures, which cannot be serialized, so restore
// replays them at their journaled instants before patching component
// state. Climate and door events mutate component state directly, so
// their effect travels inside the building snapshots and they are never
// replayed.
//
//bzlint:state ExportState RestoreState
type State struct {
	Ticks     uint64
	Journal   []AppliedEvent
	Buildings []core.SystemState
}

// ErrRunFailed is wrapped in ExportState's error on a fleet whose
// RunTicks failed part way through an epoch, or whose event failed part
// way through its buildings: its buildings stand at different ticks, or
// hold an event the journal lacks, and no snapshot of them is
// consistent.
var ErrRunFailed = errors.New("fleet: a failed run left the buildings mid-epoch")

// ExportState captures the fleet's full mutable state. Events queued but
// not yet drained are applied first, at the current epoch boundary —
// exactly where the next RunTicks would land them — so nothing in flight
// is silently dropped from the snapshot. The buildings export on the
// fleet's pool, each into its own slot; a failure names the lowest
// failing building, whatever order the workers finish in. A fleet whose
// RunTicks or event failed part way cannot be exported (ErrRunFailed).
func (f *Fleet) ExportState() (State, error) {
	if f.stepErr != nil {
		return State{}, fmt.Errorf("%w: %w", ErrRunFailed, f.stepErr)
	}
	if err := f.drainEvents(); err != nil {
		return State{}, err
	}
	st := State{
		Ticks:     f.ticks,
		Journal:   f.Journal(),
		Buildings: make([]core.SystemState, len(f.buildings)),
	}
	if err := f.forEachBuilding("export", func(i int) (err error) {
		st.Buildings[i], err = f.buildings[i].sys.ExportState()
		return err
	}); err != nil {
		return State{}, err
	}
	return st, nil
}

// forEachBuilding runs fn for every building on the fleet's pool; each
// call may touch only its own building and slot. A building's error does
// not stop the others, and the one returned is the lowest failing
// building's, whatever order the workers finish in. A panic stops the
// pool and is returned as it is.
func (f *Fleet) forEachBuilding(op string, fn func(i int) error) error {
	errs := make([]error, len(f.buildings))
	if err := f.pool.ForEach(context.TODO(), len(f.buildings), func(_ context.Context, i int) error {
		errs[i] = fn(i)
		return nil
	}); err != nil {
		return fmt.Errorf("fleet: %s: %w", op, err)
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fleet: %s building %d: %w", op, i, err)
		}
	}
	return nil
}

// RestoreState patches a freshly constructed Fleet to the captured point.
// The receiver must have been built from the same Config as the exporter
// and not yet run. Journaled fault events replay first: applyNow
// re-schedules the same timeline closures at the same absolute instants,
// and each engine's restore then drops exactly the prefix that had
// already fired before the snapshot. Structural mismatches are reported
// before any building is mutated, among them a trace series whose
// retention is not the one construction gave it: the rebuilt rings are
// refilled in place, and a snapshot cannot size a ring of its own. The
// checks and the journal replay run in order, on the caller's goroutine,
// where a panic in the replay is its entry's error; then the buildings
// restore on the fleet's pool, each from its own slot, and a failure
// names the lowest failing building.
func (f *Fleet) RestoreState(st State) error {
	if f.ticks != 0 || len(f.Journal()) != 0 {
		return fmt.Errorf("fleet: restore target must be freshly constructed (ticks=%d)", f.ticks)
	}
	if len(st.Buildings) != len(f.buildings) {
		return fmt.Errorf("fleet: fleet has %d buildings, snapshot has %d",
			len(f.buildings), len(st.Buildings))
	}
	for i := range st.Buildings {
		want := 0
		if f.cfg.sampled(i) {
			want = f.cfg.SampleRetention
		}
		for _, ss := range st.Buildings[i].Recorder.Series {
			if ss.Retention != want {
				return fmt.Errorf("fleet: building %d series %q: retention %d, the fleet keeps %d",
					i, ss.Name, ss.Retention, want)
			}
		}
	}
	for i, ae := range st.Journal {
		if ae.Event.Kind != EventFault {
			continue
		}
		if err := ae.Event.Validate(len(f.buildings)); err != nil {
			return fmt.Errorf("fleet: journal entry %d: %w", i, err)
		}
		if err := f.applyNow(ae.Event, ae.Tick); err != nil {
			return fmt.Errorf("fleet: replay journal entry %d: %w", i, err)
		}
	}
	if err := f.forEachBuilding("restore", func(i int) error {
		return f.buildings[i].sys.RestoreState(st.Buildings[i])
	}); err != nil {
		return err
	}
	f.ticks = st.Ticks
	f.evMu.Lock()
	f.journal = append([]AppliedEvent(nil), st.Journal...)
	f.evMu.Unlock()
	return nil
}
