package fleet

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fault"
	"bubblezero/internal/trace"
)

// snapshotCfg is the round-trip scenario: a small sharded fleet with full
// sampling and a construction fault plan on building 1 (so its watchdog
// is armed and its state travels in the snapshot).
func snapshotCfg(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.SampleEvery = 1
	cfg.MemBudgetBytes = 0
	cfg.Shards = 2
	cfg.EpochTicks = 256
	cfg.FaultPlan = func(i int, seed uint64) *fault.Plan {
		if i != 1 {
			return nil
		}
		plan, err := fault.NewPlan(
			fault.SensorStuck(2*time.Minute, 3*time.Minute, "bt-temp-2"),
		)
		if err != nil {
			t.Fatalf("NewPlan: %v", err)
		}
		return plan
	}
	return cfg
}

// liveEvents is the mutation batch both runs inject at the tick-300
// boundary: a fleet-wide weather change, a door disturbance, and a live
// fault plan on building 2 whose first event fires before the snapshot
// point (tick 556) and whose second fires after it — so restore must both
// drop a fired closure prefix and re-schedule a pending one.
func liveEvents() []Event {
	return []Event{
		{Kind: EventClimate, TC: 33.5, DewC: 27.2},
		{Kind: EventDoor, Building: 0, Door: 90 * time.Second},
		{Kind: EventFault, Building: 2, Faults: []fault.Event{
			fault.BurstLoss(60*time.Second, 120*time.Second, 0.5),               // fires 360, clears 480
			fault.ChillerTrip(400*time.Second, 120*time.Second, fault.LoopVent), // fires 700, clears 820
		}},
	}
}

func applyAll(t *testing.T, fl *Fleet, evs []Event) {
	t.Helper()
	for i, ev := range evs {
		if err := fl.Apply(ev); err != nil {
			t.Fatalf("Apply event %d: %v", i, err)
		}
	}
}

// TestFleetSnapshotRoundTrip pins the digital-twin checkpoint contract:
// a fleet checkpointed at tick 556 and restored into a freshly built
// fleet (same Config) must finish the run bit-identical — trace SHA and
// Float64bits zone state — to the uninterrupted reference, with no
// golden-epoch re-pin. The scenario covers a construction-armed fault
// plan, a live-injected plan replayed from the journal, and climate/door
// events carried purely by component state.
func TestFleetSnapshotRoundTrip(t *testing.T) {
	const (
		preTicks  = 300 // before the mutation batch
		snapTicks = 256 // mutation batch → checkpoint at tick 556
		endTicks  = 900
	)
	cfg := snapshotCfg(t)

	// Uninterrupted reference.
	ref, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New(ref): %v", err)
	}
	if err := ref.RunTicks(context.Background(), preTicks); err != nil {
		t.Fatalf("ref pre-run: %v", err)
	}
	applyAll(t, ref, liveEvents())
	if err := ref.RunTicks(context.Background(), endTicks-preTicks); err != nil {
		t.Fatalf("ref run to end: %v", err)
	}

	// Checkpointed run: identical through tick 556, then export.
	chk, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New(chk): %v", err)
	}
	if err := chk.RunTicks(context.Background(), preTicks); err != nil {
		t.Fatalf("chk pre-run: %v", err)
	}
	applyAll(t, chk, liveEvents())
	if err := chk.RunTicks(context.Background(), snapTicks); err != nil {
		t.Fatalf("chk run to snapshot: %v", err)
	}
	st, err := chk.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	if st.Ticks != preTicks+snapTicks {
		t.Fatalf("snapshot Ticks = %d, want %d", st.Ticks, preTicks+snapTicks)
	}

	// Fresh process stand-in: new fleet from the same config, restored,
	// run to the end.
	res, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New(res): %v", err)
	}
	if err := res.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if err := res.RunTicks(context.Background(), endTicks-preTicks-snapTicks); err != nil {
		t.Fatalf("restored run to end: %v", err)
	}

	if got := res.Ticks(); got != endTicks {
		t.Fatalf("restored Ticks() = %d, want %d", got, endTicks)
	}
	for i := 0; i < cfg.Buildings; i++ {
		if got, want := roomStateKey(res.Building(i)), roomStateKey(ref.Building(i)); got != want {
			t.Errorf("building %d: restored zone state diverged from uninterrupted run", i)
		}
		if got, want := traceSHA(t, res.Building(i)), traceSHA(t, ref.Building(i)); got != want {
			t.Errorf("building %d: restored trace %s != uninterrupted %s", i, got[:12], want[:12])
		}
	}
	if got, want := res.Journal(), ref.Journal(); len(got) != len(want) {
		t.Errorf("restored journal has %d entries, reference %d", len(got), len(want))
	}
}

// TestFleetChunkedRunMatchesUninterrupted pins that splitting a run into
// many short RunTicks calls changes nothing, with live fault events firing
// inside the calls: the same 900 ticks, run in calls of 1, 7 and 128 ticks
// with the event batch applied at tick 300, must match the reference run
// bit for bit. A live twin steps its fleet in such short calls.
func TestFleetChunkedRunMatchesUninterrupted(t *testing.T) {
	const (
		preTicks = 300 // before the mutation batch
		endTicks = 900
	)
	cfg := snapshotCfg(t)
	// run advances a fresh fleet to endTicks in calls of at most chunk
	// ticks, stopping at preTicks to apply the batch.
	run := func(chunk uint64) *Fleet {
		fl, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatalf("chunk %d: New: %v", chunk, err)
		}
		for fl.Ticks() < preTicks {
			if err := fl.RunTicks(context.Background(), min(chunk, preTicks-fl.Ticks())); err != nil {
				t.Fatalf("chunk %d: pre-run: %v", chunk, err)
			}
		}
		applyAll(t, fl, liveEvents())
		for fl.Ticks() < endTicks {
			if err := fl.RunTicks(context.Background(), min(chunk, endTicks-fl.Ticks())); err != nil {
				t.Fatalf("chunk %d: run to end: %v", chunk, err)
			}
		}
		return fl
	}
	ref := run(endTicks) // RunTicks(300), the batch, RunTicks(600)

	for _, chunk := range []uint64{1, 7, 128} {
		fl := run(chunk)
		for i := 0; i < cfg.Buildings; i++ {
			if got, want := roomStateKey(fl.Building(i)), roomStateKey(ref.Building(i)); got != want {
				t.Errorf("chunk %d, building %d: zone state diverged from uninterrupted run", chunk, i)
			}
			if got, want := traceSHA(t, fl.Building(i)), traceSHA(t, ref.Building(i)); got != want {
				t.Errorf("chunk %d, building %d: trace %s != uninterrupted %s", chunk, i, got[:12], want[:12])
			}
		}
		got, want := fl.Journal(), ref.Journal()
		if len(got) != len(want) {
			t.Fatalf("chunk %d: journal has %d entries, reference %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i].Tick != want[i].Tick {
				t.Errorf("chunk %d: journal entry %d at tick %d, reference %d", chunk, i, got[i].Tick, want[i].Tick)
			}
		}
	}
}

// TestFleetSnapshotExportDrainsPending pins that events still queued at
// export time land in the snapshot: they are applied at the current
// boundary and journaled, not dropped.
func TestFleetSnapshotExportDrainsPending(t *testing.T) {
	cfg := snapshotCfg(t)
	fl, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fl.RunTicks(context.Background(), 128); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	if err := fl.Apply(Event{Kind: EventClimate, TC: 30, DewC: 25}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	st, err := fl.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	if len(st.Journal) != 1 || st.Journal[0].Tick != 128 {
		t.Fatalf("journal = %+v, want one climate entry at tick 128", st.Journal)
	}
	if got := fl.Building(0).Room().Outdoor().T; got != 30 {
		t.Fatalf("outdoor T = %v after export-time drain, want 30", got)
	}
}

// TestFleetRestoreRejectsMismatch pins the structural guards: restore
// refuses a fleet that has already run and a snapshot sized for a
// different fleet.
func TestFleetRestoreRejectsMismatch(t *testing.T) {
	cfg := snapshotCfg(t)
	src, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := src.RunTicks(context.Background(), 64); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	st, err := src.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}

	if err := src.RestoreState(st); err == nil || !strings.Contains(err.Error(), "freshly constructed") {
		t.Fatalf("restore into run fleet: err = %v, want freshly-constructed guard", err)
	}

	small := cfg
	small.Buildings = 2
	tgt, err := New(context.Background(), small)
	if err != nil {
		t.Fatalf("New(small): %v", err)
	}
	if err := tgt.RestoreState(st); err == nil || !strings.Contains(err.Error(), "buildings") {
		t.Fatalf("restore into wrong-size fleet: err = %v, want building-count guard", err)
	}

	// A series that asks for a ring of its own size: refused before any
	// building is touched, so the same fleet still takes the intact state.
	resized := st
	resized.Buildings = append([]core.SystemState(nil), st.Buildings...)
	rs := &resized.Buildings[3].Recorder
	rs.Series = append([]trace.SeriesState(nil), rs.Series...)
	rs.Series[0].Retention = 1 << 40
	fresh, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fresh.RestoreState(resized); err == nil || !strings.Contains(err.Error(), "building 3 series") {
		t.Fatalf("restore of a resized series: err = %v, want retention guard", err)
	}
	if err := fresh.RestoreState(st); err != nil {
		t.Fatalf("restore after a refused one: %v", err)
	}
}

// TestFleetStateErrorsNameLowestBuilding pins the error of an export or a
// restore that fails on several buildings at once. The buildings run on
// the fleet's pool in no fixed order, and the error is the lowest failing
// building's, in the text a one-building-at-a-time walk gave. `make
// race-twin` runs it under the race detector.
func TestFleetStateErrorsNameLowestBuilding(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig(8)
	cfg.Shards = 2
	cfg.SampleEvery = 1
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

	// Buildings 2 and 6 lose a device; 6 also loses a broadcaster.
	bad := st
	bad.Buildings = append([]core.SystemState(nil), st.Buildings...)
	devices := len(st.Buildings[2].Devices)
	for _, i := range []int{2, 6} {
		bad.Buildings[i].Devices = bad.Buildings[i].Devices[:devices-1]
	}
	bad.Buildings[6].Broadcasters = nil
	want := fmt.Sprintf("fleet: restore building 2: core: restore: system has %d devices, snapshot has %d", devices, devices-1)
	for round := 0; round < 20; round++ {
		fresh, err := New(ctx, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := fresh.RestoreState(bad); err == nil || err.Error() != want {
			t.Fatalf("round %d: restore err = %v, want %q", round, err, want)
		}
	}

	// Every building of a fleet with exact tracking refuses to export.
	exact := cfg
	exact.Base.TrackExact = true
	fl, err := New(ctx, exact)
	if err != nil {
		t.Fatalf("New(TrackExact): %v", err)
	}
	_, err = fl.Building(0).ExportState()
	if err == nil {
		t.Fatal("a TrackExact building exported")
	}
	want = "fleet: export building 0: " + err.Error()
	for round := 0; round < 20; round++ {
		if _, err := fl.ExportState(); err == nil || err.Error() != want {
			t.Fatalf("round %d: export err = %v, want %q", round, err, want)
		}
	}
}
