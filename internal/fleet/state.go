package fleet

import (
	"context"
	"errors"
	"fmt"

	"bubblezero/internal/core"
	"bubblezero/internal/runner"
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
	if err := f.forEachBuilding("export", func(i int) error {
		var err error
		if st.Buildings[i], err = f.buildings[i].sys.ExportState(); err != nil {
			return fmt.Errorf("fleet: export building %d: %w", i, err)
		}
		return nil
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
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RestoreState patches a freshly constructed Fleet to the captured point.
// The receiver must have been built from the same Config as the exporter
// and not yet run. Structural mismatches are reported before any
// building is mutated: every journal entry is checked against the fleet,
// and every trace series must have the retention construction gave it,
// since the rebuilt rings are refilled in place and a snapshot cannot
// size a ring of its own. Then the buildings restore on the fleet's pool,
// each from its own slot, through the step Restore takes too
// (restoreBuilding), and a failure names the lowest failing building.
func (f *Fleet) RestoreState(st State) error {
	if f.ticks != 0 || len(f.Journal()) != 0 {
		return fmt.Errorf("fleet: restore target must be freshly constructed (ticks=%d)", f.ticks)
	}
	if len(st.Buildings) != len(f.buildings) {
		return fmt.Errorf("fleet: fleet has %d buildings, snapshot has %d",
			len(f.buildings), len(st.Buildings))
	}
	for i := range st.Buildings {
		if err := f.checkRetention(i, &st.Buildings[i]); err != nil {
			return err
		}
	}
	faults, err := faultEntries(st.Journal, len(f.buildings))
	if err != nil {
		return err
	}
	if err := f.forEachBuilding("restore", func(i int) error {
		return f.restoreBuilding(i, &st.Buildings[i], st.Journal, faults[i])
	}); err != nil {
		return err
	}
	f.setRestored(st.Ticks, st.Journal)
	return nil
}

// Restore builds the fleet cfg describes and restores it to a snapshot's
// tick and journal, taking each building's state from next in index
// order: RestoreState for a snapshot that arrives a building at a time.
// The caller's goroutine calls next for building i+1 while a second
// goroutine builds building i, replays its journaled fault events and
// restores it, so decoding and restoring run side by side. Fault events
// target one building, so replaying each building's entries in journal
// order is replaying the whole journal. The count cfg.Buildings
// allocates nothing: a building is built only after next has returned
// its state, and every journal entry is checked against cfg before the
// first one is built. The first error, from next or from a building,
// stops both goroutines; the one returned is the lowest building's, and
// a panic while a building builds, replays or restores is that
// building's error. A ctx that ends before every building is restored is
// ctx's error, so Restore returns a fleet only with all cfg.Buildings
// buildings. No goroutine outlives the call.
func Restore(ctx context.Context, cfg Config, ticks uint64, journal []AppliedEvent,
	next func(i int) (*core.SystemState, error)) (*Fleet, error) {
	f, quiet, sampled, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	faults, err := faultEntries(journal, cfg.Buildings)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	states := make(chan *core.SystemState, 1)
	done := make(chan struct{})
	var restoreErr error // the restoring goroutine's, read after done
	//bzlint:allow determinism restoring buildings in index order beside their decoding; each building's state is its own
	go func() {
		defer close(done)
		for bs := range states {
			if ctx.Err() != nil {
				return
			}
			i := len(f.buildings)
			if restoreErr = f.restoreNext(i, bs, quiet, sampled, journal, faults[i]); restoreErr != nil {
				cancel()
				return
			}
		}
	}()
	var nextErr error
	for i := 0; i < cfg.Buildings; i++ {
		if nextErr = ctx.Err(); nextErr != nil {
			break
		}
		var bs *core.SystemState
		if bs, nextErr = next(i); nextErr != nil {
			cancel()
			break
		}
		select {
		case states <- bs:
		case <-ctx.Done():
			nextErr = ctx.Err()
		}
	}
	close(states)
	<-done
	if restoreErr != nil {
		return nil, restoreErr
	}
	if nextErr != nil {
		return nil, nextErr
	}
	if len(f.buildings) != cfg.Buildings {
		// The caller's ctx ended after the last building was handed
		// over, and the restoring goroutine dropped what it had not
		// restored.
		return nil, ctx.Err()
	}
	f.setRestored(ticks, journal)
	return f, nil
}

// restoreNext builds building i, the next the fleet lacks, and restores it
// from bs. A panic is its error, naming the building.
func (f *Fleet) restoreNext(i int, bs *core.SystemState, quiet, sampled *core.Shared,
	journal []AppliedEvent, entries []int) (err error) {
	var panicked error
	func() {
		defer runner.Recover(&panicked)
		var sys *core.System
		if sys, err = newBuilding(&f.cfg, quiet, sampled, i); err != nil {
			err = fmt.Errorf("fleet: building %d: %w", i, err)
			return
		}
		f.buildings = append(f.buildings, building{sys: sys})
		if err = f.checkRetention(i, bs); err == nil {
			err = f.restoreBuilding(i, bs, journal, entries)
		}
	}()
	if panicked != nil {
		return fmt.Errorf("fleet: restore building %d: %w", i, panicked)
	}
	return err
}

// checkRetention refuses a trace series of building i whose retention is
// not the one construction gave it.
func (f *Fleet) checkRetention(i int, bs *core.SystemState) error {
	want := 0
	if f.cfg.sampled(i) {
		want = f.cfg.SampleRetention
	}
	for _, ss := range bs.Recorder.Series {
		if ss.Retention != want {
			return fmt.Errorf("fleet: building %d series %q: retention %d, the fleet keeps %d",
				i, ss.Name, ss.Retention, want)
		}
	}
	return nil
}

// faultEntries checks every journal entry against a fleet of n buildings
// and returns the fault entries' indices by the building they target, in
// journal order. Climate and door events changed component state that
// the buildings' snapshots carry, so only fault events replay.
func faultEntries(journal []AppliedEvent, n int) (map[int][]int, error) {
	var faults map[int][]int
	for k, ae := range journal {
		if err := ae.Event.Validate(n); err != nil {
			return nil, fmt.Errorf("fleet: journal entry %d: %w", k, err)
		}
		if ae.Event.Kind == EventFault {
			if faults == nil {
				faults = make(map[int][]int)
			}
			faults[ae.Event.Building] = append(faults[ae.Event.Building], k)
		}
	}
	return faults, nil
}

// restoreBuilding replays building i's journal entries, the journal
// indices entries lists, and then restores the building from bs: the
// per-building step of Restore and RestoreState. applyNow re-schedules
// each fault's timeline closures at the journaled instants, and the
// engine's restore then drops exactly the prefix that had already fired
// before the snapshot. A panic in the replay is its entry's error.
func (f *Fleet) restoreBuilding(i int, bs *core.SystemState, journal []AppliedEvent, entries []int) error {
	for _, k := range entries {
		if err := f.applyNow(journal[k].Event, journal[k].Tick); err != nil {
			return fmt.Errorf("fleet: replay journal entry %d: %w", k, err)
		}
	}
	if err := f.buildings[i].sys.RestoreState(*bs); err != nil {
		return fmt.Errorf("fleet: restore building %d: %w", i, err)
	}
	return nil
}

// setRestored sets a restored fleet's tick count and journal.
func (f *Fleet) setRestored(ticks uint64, journal []AppliedEvent) {
	f.ticks = ticks
	f.evMu.Lock()
	f.journal = append([]AppliedEvent(nil), journal...)
	f.evMu.Unlock()
}
