package sim

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// Register API tests: default scheduling, option composition, and the
// fault-suspension semantics WithFaultable arms.

func TestRegisterDefaults(t *testing.T) {
	// Register with no options puts a plain component on the every-tick
	// path and a Cadenced one on the due-wheel, with identical observable
	// behavior: the accumulator covers every tick and fires on schedule.
	e := NewEngine(MustClock(testStart, time.Second), 1)
	var n uint64
	e.Register(ComponentFunc{ID: "plain", Fn: func(*Env) { n++ }})
	dev := &accumCadenced{name: "dev", periodS: 3}
	e.Register(dev)
	if err := e.RunTicks(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("plain component stepped %d times, want every tick (20)", n)
	}
	if dev.ticks != 20 {
		t.Errorf("cadenced bookkeeping covers %d ticks, want 20", dev.ticks)
	}
	want := []uint64{2, 5, 8, 11, 14, 17}
	if fmt.Sprint(dev.fires) != fmt.Sprint(want) {
		t.Errorf("cadenced fires = %v, want %v", dev.fires, want)
	}
	stats := e.StepStats()
	if stats[0].Kind != "every-tick" || stats[1].Kind != "cadenced" {
		t.Errorf("stats kinds = %s/%s, want every-tick/cadenced", stats[0].Kind, stats[1].Kind)
	}
}

func TestWithOnDemandSameTickWake(t *testing.T) {
	// A wake from an earlier-ordered component lands on the same tick.
	e := NewEngine(MustClock(testStart, time.Second), 1)
	var stepped []uint64
	var wake func()
	e.Register(ComponentFunc{ID: "producer", Fn: func(env *Env) {
		if env.clock.Tick()%3 == 0 {
			wake()
		}
	}})
	c := ComponentFunc{ID: "net", Fn: func(env *Env) { stepped = append(stepped, env.clock.Tick()) }}
	wake = e.Register(c, WithOnDemand()).Wake
	if err := e.RunTicks(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 3, 6, 9}
	if fmt.Sprint(stepped) != fmt.Sprint(want) {
		t.Errorf("Register(WithOnDemand) stepped on %v, want %v", stepped, want)
	}
}

func TestRegisterOptionPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	e := NewEngine(MustClock(testStart, time.Second), 1)
	noop := ComponentFunc{ID: "noop", Fn: func(*Env) {}}
	mustPanic("Wake on non-on-demand", func() {
		e.Register(noop).Wake()
	})
	mustPanic("Suspend without WithFaultable", func() {
		e.Register(noop).Suspend()
	})
	mustPanic("Resume without WithFaultable", func() {
		e.Register(noop).Resume()
	})
}

func TestSuspendResumeAlwaysComponent(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	var stepped []uint64
	reg := e.Register(ComponentFunc{ID: "c", Fn: func(env *Env) {
		stepped = append(stepped, env.clock.Tick())
	}}, WithFaultable())
	if err := e.RunTicks(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	reg.Suspend()
	if !reg.ent.suspended {
		t.Fatal("Suspended() false after Suspend")
	}
	if err := e.RunTicks(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	reg.Resume()
	if reg.ent.suspended {
		t.Fatal("Suspended() true after Resume")
	}
	if err := e.RunTicks(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	// Ticks 0-2 stepped, 3-6 suspended (not replayed), 7-9 stepped.
	want := []uint64{0, 1, 2, 7, 8, 9}
	if fmt.Sprint(stepped) != fmt.Sprint(want) {
		t.Errorf("stepped on %v, want %v", stepped, want)
	}
}

func TestSuspendResumeCadencedComponent(t *testing.T) {
	// A due-wheel mote suspended mid-run: the outage ticks are never
	// replayed, the accumulator freezes across the outage, and after
	// Resume the device is back on its own schedule.
	e := NewEngine(MustClock(testStart, time.Second), 1)
	dev := &accumCadenced{name: "dev", periodS: 3}
	reg := e.Register(dev, WithFaultable())
	if err := e.RunTicks(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	// Fires at ticks 2 and 5; tick 6 has been applied (flush-on-suspend
	// brings doneThrough to the clock even off a due boundary).
	reg.Suspend()
	ticksAtSuspend := dev.ticks
	if err := e.RunTicks(context.Background(), 9); err != nil {
		t.Fatal(err)
	}
	if dev.ticks != ticksAtSuspend {
		t.Errorf("suspended device applied %d ticks during the outage", dev.ticks-ticksAtSuspend)
	}
	reg.Resume()
	if err := e.RunTicks(context.Background(), 9); err != nil {
		t.Fatal(err)
	}
	// The outage span [7,16) is skipped entirely: total applied ticks are
	// the 7 before plus at most the 9 after (quantization to due ticks may
	// withhold the first post-resume poll).
	if dev.ticks > ticksAtSuspend+9 {
		t.Errorf("device applied %d ticks after resume, want <= 9 (no outage replay)",
			dev.ticks-ticksAtSuspend)
	}
	for _, f := range dev.fires {
		if f >= 7 && f < 16 {
			t.Errorf("device fired on tick %d inside the outage", f)
		}
	}
	if len(dev.fires) < 4 {
		t.Errorf("device fired %d times (%v), want it back on schedule after resume",
			len(dev.fires), dev.fires)
	}
}

func TestSuspendFlushesPendingTicks(t *testing.T) {
	// Suspending between due ticks must first apply the elapsed span, so
	// accumulators (battery drain analogue) stay exact up to the outage.
	e := NewEngine(MustClock(testStart, time.Second), 1)
	dev := &accumCadenced{name: "dev", periodS: 5}
	reg := e.Register(dev, WithFaultable())
	if err := e.RunTicks(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	reg.Suspend()
	if dev.ticks != 7 {
		t.Errorf("device saw %d ticks at suspend, want all 7 flushed", dev.ticks)
	}
}

func TestSuspendedStepStatsCountSkips(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	reg := e.Register(ComponentFunc{ID: "c", Fn: func(*Env) {}}, WithFaultable())
	reg.Suspend()
	if err := e.RunTicks(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	stats := e.StepStats()
	if stats[0].Steps != 0 || stats[0].Skipped != 5 {
		t.Errorf("suspended stats = %+v, want 0 steps / 5 skipped", stats[0])
	}
}

func TestWakeLatchedAcrossSuspension(t *testing.T) {
	// A wake delivered while the component is suspended must not be lost:
	// it steps on the first processed tick after Resume.
	e := NewEngine(MustClock(testStart, time.Second), 1)
	var stepped []uint64
	reg := e.Register(ComponentFunc{ID: "net", Fn: func(env *Env) {
		stepped = append(stepped, env.clock.Tick())
	}}, WithOnDemand(), WithFaultable())
	reg.Wake()
	reg.Suspend()
	if err := e.RunTicks(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if len(stepped) != 0 {
		t.Fatalf("suspended on-demand component stepped on %v", stepped)
	}
	reg.Resume()
	if err := e.RunTicks(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(stepped) != fmt.Sprint([]uint64{3}) {
		t.Errorf("stepped on %v, want [3] (wake latched across suspension)", stepped)
	}
}
