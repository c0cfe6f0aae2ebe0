package fleet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fault"
)

// requireUnlocked fails the test if anyone holds building i's lock, for
// reading or for writing.
func requireUnlocked(t *testing.T, f *Fleet, i int) {
	t.Helper()
	b := &f.buildings[i]
	if !b.mu.TryLock() {
		t.Fatalf("building %d's lock is still held", i)
	}
	b.mu.Unlock()
}

// requirePanicError fails the test unless err carries a recovered panic:
// its value and a stack through applyNow.
func requirePanicError(t *testing.T, err error, prefix string) {
	t.Helper()
	if err == nil {
		t.Fatal("got no error, want the recovered panic")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, prefix) || !strings.Contains(msg, "panic: runtime error") ||
		!strings.Contains(msg, "applyNow") {
		t.Fatalf("err = %.300q, want %q, the panic and a stack through applyNow", msg, prefix)
	}
}

// TestEventPanicFailsTheRun pins that an event whose application panics,
// on the runner's goroutine and outside the pool, is RunTicks' error with
// its stack rather than the end of the process. The building it panicked
// in stays readable, and the fleet refuses to export: the event changed
// some buildings, and the journal holds none of it. The panic is injected
// by giving building 1 an empty System, whose door the event cannot open.
func TestEventPanicFailsTheRun(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig(3)
	cfg.Shards = 2
	f, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.RunTicks(ctx, 64); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	f.buildings[1].sys = &core.System{}
	if err := f.Apply(Event{Kind: EventDoor, Building: 1, Door: time.Minute}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	requirePanicError(t, f.RunTicks(ctx, 64), "fleet: door event at tick 64: panic: ")
	requireUnlocked(t, f, 1)
	if f.Ticks() != 64 {
		t.Errorf("fleet at tick %d after the failed event, want 64", f.Ticks())
	}
	if _, err := f.ExportState(); !errors.Is(err, ErrRunFailed) {
		t.Errorf("ExportState after the failed event: err = %v, want ErrRunFailed", err)
	}
}

// TestRestoreReplayPanicIsAnError pins that a journal replay that panics,
// in building 1's pool job, is Fleet.RestoreState's error with its stack
// and leaves the building's lock free. The replay runs in restoreBuilding,
// the step fleet.Restore takes too on POST /twins/restore's path, where
// restoreNext also recovers a panic as the building's error. The panic is
// injected as above, on the restore target's building 1, which the
// journal's fault event targets.
func TestRestoreReplayPanicIsAnError(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig(3)
	cfg.Shards = 2
	src, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := src.Apply(Event{Kind: EventFault, Building: 1, Faults: []fault.Event{
		fault.ChillerTrip(time.Minute, time.Minute, fault.LoopVent),
	}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := src.RunTicks(ctx, 64); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	st, err := src.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	dst, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dst.buildings[1].sys = &core.System{}
	requirePanicError(t, dst.RestoreState(st), "fleet: replay journal entry 0: panic: ")
	requireUnlocked(t, dst, 1)
}
