package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fault"
)

// sliceSource yields st's buildings in index order, as Restore's source,
// and counts the buildings asked for.
func sliceSource(st State, calls *atomic.Int32) func(i int) (*core.SystemState, error) {
	return func(i int) (*core.SystemState, error) {
		calls.Add(1)
		return &st.Buildings[i], nil
	}
}

// requireNoNewGoroutines fails the test unless the goroutines beside the
// test's own are back to before within a second: Restore's restoring
// goroutine must not outlive the call.
func requireNoNewGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the restore, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRestoreMatchesUninterruptedRun is TestFleetSnapshotRoundTrip through
// Restore, the streamed restore: a fleet checkpointed at tick 556 with a
// live fault plan on building 2 part fired, restored a building at a time
// and run to tick 900, matches the uninterrupted reference bit for bit.
// Each building replays its own journal entries, so building 2's pending
// chiller trip must fire after the restore. `make race-twin` runs it
// under the race detector: the source and the restoring goroutine hand
// buildings between them.
func TestRestoreMatchesUninterruptedRun(t *testing.T) {
	const (
		preTicks  = 300
		snapTicks = 256
		endTicks  = 900
	)
	ctx := context.Background()
	cfg := snapshotCfg(t)
	run := func(fl *Fleet, n uint64) {
		t.Helper()
		if err := fl.RunTicks(ctx, n); err != nil {
			t.Fatalf("RunTicks: %v", err)
		}
	}
	ref, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("New(ref): %v", err)
	}
	run(ref, preTicks)
	applyAll(t, ref, liveEvents())
	run(ref, endTicks-preTicks)

	chk, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("New(chk): %v", err)
	}
	run(chk, preTicks)
	applyAll(t, chk, liveEvents())
	run(chk, snapTicks)
	st, err := chk.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}

	var calls atomic.Int32
	res, err := Restore(ctx, cfg, st.Ticks, st.Journal, sliceSource(st, &calls))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if n := int(calls.Load()); n != cfg.Buildings {
		t.Fatalf("Restore asked for %d buildings, want %d", n, cfg.Buildings)
	}
	if res.Ticks() != st.Ticks || len(res.Journal()) != len(st.Journal) {
		t.Fatalf("restored fleet at tick %d with %d journal entries, want %d and %d",
			res.Ticks(), len(res.Journal()), st.Ticks, len(st.Journal))
	}
	run(res, endTicks-preTicks-snapTicks)
	for i := 0; i < cfg.Buildings; i++ {
		if got, want := roomStateKey(res.Building(i)), roomStateKey(ref.Building(i)); got != want {
			t.Errorf("building %d: restored zone state diverged from uninterrupted run", i)
		}
		if got, want := traceSHA(t, res.Building(i)), traceSHA(t, ref.Building(i)); got != want {
			t.Errorf("building %d: restored trace %s != uninterrupted %s", i, got[:12], want[:12])
		}
	}
}

// TestRestoreStopsAtFirstError pins Restore's failures. A source error
// stops the restore at that building and is returned as it is. A
// building that fails to restore stops the source within the two
// buildings it may have read ahead, and the error names the building. A
// caller's context that ends part way, even while the last building is
// handed over, is the error, and no fleet is returned. A journal entry
// that does not fit the fleet fails before any building is asked for. No
// failure leaves a goroutine behind.
func TestRestoreStopsAtFirstError(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig(8)
	cfg.Shards = 2
	cfg.SampleEvery = 2
	cfg.SampleRetention = 64
	cfg.MemBudgetBytes = 0
	src, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := src.RunTicks(ctx, 64); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	st, err := src.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	before := runtime.NumGoroutine()

	errCut := errors.New("stream cut")
	var calls atomic.Int32
	_, err = Restore(ctx, cfg, st.Ticks, st.Journal, func(i int) (*core.SystemState, error) {
		calls.Add(1)
		if i == 2 {
			return nil, errCut
		}
		return &st.Buildings[i], nil
	})
	if !errors.Is(err, errCut) || calls.Load() != 3 {
		t.Fatalf("source failing at building 2: err = %v after %d buildings, want the source's error after 3", err, calls.Load())
	}
	requireNoNewGoroutines(t, before)

	bad := st
	bad.Buildings = append([]core.SystemState(nil), st.Buildings...)
	devices := len(st.Buildings[1].Devices)
	bad.Buildings[1].Devices = bad.Buildings[1].Devices[:devices-1]
	calls.Store(0)
	_, err = Restore(ctx, cfg, bad.Ticks, bad.Journal, sliceSource(bad, &calls))
	want := fmt.Sprintf("fleet: restore building 1: core: restore: system has %d devices, snapshot has %d", devices, devices-1)
	if err == nil || err.Error() != want {
		t.Fatalf("building 1 failing: err = %v, want %q", err, want)
	}
	if n := calls.Load(); n > 4 {
		t.Fatalf("building 1 failed, yet the source was asked for %d buildings, want at most 4", n)
	}
	requireNoNewGoroutines(t, before)

	// A caller whose context ends while the source hands over a building
	// gets its context's error, never a fleet short of buildings. The
	// hand-off of the last one races the cancellation (either may win the
	// select), so it is tried many times.
	for k, last := range append([]int{3}, slices.Repeat([]int{cfg.Buildings - 1}, 32)...) {
		cctx, cancelCaller := context.WithCancel(ctx)
		fl, err := Restore(cctx, cfg, st.Ticks, st.Journal, func(i int) (*core.SystemState, error) {
			if i == last {
				cancelCaller()
			}
			return &st.Buildings[i], nil
		})
		cancelCaller()
		if !errors.Is(err, context.Canceled) || fl != nil {
			t.Fatalf("caller cancelled at building %d (try %d): got a fleet: %t, err = %v, want no fleet and context.Canceled",
				last, k, fl != nil, err)
		}
		requireNoNewGoroutines(t, before)
	}

	journal := []AppliedEvent{{Event: Event{Kind: EventDoor, Building: 8, Door: time.Minute}, Tick: 32}}
	calls.Store(0)
	_, err = Restore(ctx, cfg, st.Ticks, journal, sliceSource(st, &calls))
	if err == nil || !strings.Contains(err.Error(), "fleet: journal entry 0: fleet: door event building 8 out of range") || calls.Load() != 0 {
		t.Fatalf("out-of-range journal entry: err = %v after %d buildings, want it refused before any", err, calls.Load())
	}
	requireNoNewGoroutines(t, before)
}

// TestRestorePanicIsTheBuildingsError pins that a panic on Restore's
// restoring goroutine is an error naming the building, with the panic and
// its stack, and ends no process. The panic is injected by a fault plan
// that panics while building 1 is built.
func TestRestorePanicIsTheBuildingsError(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig(3)
	cfg.Shards = 2
	src, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := src.RunTicks(ctx, 64); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	st, err := src.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	before := runtime.NumGoroutine()
	panics := cfg
	panics.FaultPlan = func(i int, _ uint64) *fault.Plan {
		if i == 1 {
			panic("no plan for building 1")
		}
		return nil
	}
	var calls atomic.Int32
	_, err = Restore(ctx, panics, st.Ticks, st.Journal, sliceSource(st, &calls))
	if err == nil {
		t.Fatal("Restore survived a panicking building with no error")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "fleet: restore building 1: panic: no plan for building 1") || !strings.Contains(msg, "newBuilding") {
		t.Fatalf("err = %.300q, want building 1's panic and a stack through newBuilding", msg)
	}
	requireNoNewGoroutines(t, before)
}
