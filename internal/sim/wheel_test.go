package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// accumCadenced is a test double for the sensor-device pattern: per-tick
// accumulator bookkeeping (the idle-drain analogue is the ticks counter)
// with observable work whenever the accumulator crosses the period. It
// implements Cadenced exactly as the wsn devices do — NextDue replays the
// accumulator's float arithmetic.
type accumCadenced struct {
	name    string
	periodS float64
	since   float64
	ticks   uint64   // per-tick bookkeeping applied (catch-up included)
	fires   []uint64 // ticks on which observable work happened
	observe func()   // optional, runs at each fire
}

func (a *accumCadenced) Name() string  { return a.name }
func (a *accumCadenced) Step(env *Env) { a.StepN(env, 1) }
func (a *accumCadenced) StepN(env *Env, n uint64) {
	dt := env.Dt()
	for ; n > 0; n-- {
		a.ticks++
		a.since += dt
		for a.since >= a.periodS {
			a.since -= a.periodS
			a.fires = append(a.fires, env.clock.Tick())
			if a.observe != nil {
				a.observe()
			}
		}
	}
}

func (a *accumCadenced) NextDue(dtS float64) uint64 {
	var n uint64
	since := a.since
	for {
		n++
		next := since + dtS
		if next >= a.periodS {
			return n
		}
		since = next
	}
}

// everyTickTwin drives the same accumulator logic as a plain every-tick
// component, hiding the Cadenced methods from the engine.
type everyTickTwin struct{ a *accumCadenced }

func (w everyTickTwin) Name() string  { return w.a.name }
func (w everyTickTwin) Step(env *Env) { w.a.StepN(env, 1) }

// TestCadencedMatchesEveryTickPolling pins the wheel's core contract: a
// Cadenced component scheduled on the due-wheel ends a run with exactly
// the state and fire schedule that per-tick polling of the same logic
// produces — including at a step duration that is not exactly
// representable in binary (100 ms), where the accumulator drifts and
// NextDue must replay the drift rather than divide.
func TestCadencedMatchesEveryTickPolling(t *testing.T) {
	cases := []struct {
		step    time.Duration
		periodS float64
		ticks   uint64
	}{
		{time.Second, 3, 100},
		{time.Second, 2, 101},
		{100 * time.Millisecond, 0.3, 1000},
		{100 * time.Millisecond, 2, 997},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("step=%v_period=%vs", tc.step, tc.periodS), func(t *testing.T) {
			wheeled := &accumCadenced{name: "dev", periodS: tc.periodS}
			ew := NewEngine(MustClock(testStart, tc.step), 1)
			ew.Register(wheeled)
			if err := ew.RunTicks(context.Background(), tc.ticks); err != nil {
				t.Fatal(err)
			}

			polled := &accumCadenced{name: "dev", periodS: tc.periodS}
			ep := NewEngine(MustClock(testStart, tc.step), 1)
			ep.Register(everyTickTwin{polled})
			if err := ep.RunTicks(context.Background(), tc.ticks); err != nil {
				t.Fatal(err)
			}

			if wheeled.ticks != polled.ticks {
				t.Errorf("wheeled applied %d ticks, polled %d", wheeled.ticks, polled.ticks)
			}
			if wheeled.since != polled.since {
				t.Errorf("accumulator diverged: wheeled %v, polled %v", wheeled.since, polled.since)
			}
			if len(wheeled.fires) != len(polled.fires) {
				t.Fatalf("wheeled fired %d times, polled %d", len(wheeled.fires), len(polled.fires))
			}
			for i := range wheeled.fires {
				if wheeled.fires[i] != polled.fires[i] {
					t.Errorf("fire %d: wheeled tick %d, polled tick %d",
						i, wheeled.fires[i], polled.fires[i])
				}
			}
		})
	}
}

// TestStepStatsCountsDueTicksOnly pins the observability half of the
// tentpole: StepStats must show a cadenced component activated only on
// its due ticks, with every other processed tick counted as skipped.
func TestStepStatsCountsDueTicksOnly(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	dev := &accumCadenced{name: "dev", periodS: 3}
	e.Register(ComponentFunc{ID: "plant", Fn: func(*Env) {}})
	e.Register(dev)
	const ticks = 10
	if err := e.RunTicks(context.Background(), ticks); err != nil {
		t.Fatal(err)
	}
	stats := e.StepStats()
	if len(stats) != 2 {
		t.Fatalf("StepStats returned %d entries, want 2", len(stats))
	}
	plant, sensor := stats[0], stats[1]
	if plant.Kind != "every-tick" || plant.Steps != ticks || plant.Skipped != 0 {
		t.Errorf("plant stats = %+v, want every-tick %d/0", plant, ticks)
	}
	// Period 3 s at a 1 s step fires on ticks 2, 5, 8 — three activations.
	if sensor.Kind != "cadenced" {
		t.Errorf("sensor kind = %q, want cadenced", sensor.Kind)
	}
	if want := uint64(len(dev.fires)); sensor.Steps != want {
		t.Errorf("sensor steps = %d, want %d (one per due tick)", sensor.Steps, want)
	}
	if sensor.Steps+sensor.Skipped != ticks {
		t.Errorf("steps+skipped = %d, want %d", sensor.Steps+sensor.Skipped, ticks)
	}
	if sensor.Steps == ticks {
		t.Error("cadenced component was stepped on every tick; the wheel skipped nothing")
	}
}

// TestTimelineEventOnSkippedTick verifies the timeline is independent of
// the wheel: an event scheduled on a tick where every cadenced component
// is skipped still fires on that exact tick, and the component observes
// its effect at the next due tick.
func TestTimelineEventOnSkippedTick(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	setting := 0.0
	seen := -1.0
	dev := &accumCadenced{name: "dev", periodS: 5}
	dev.observe = func() { seen = setting }
	e.Register(dev)
	var firedTick uint64
	// Tick 3 is mid-gap: the device's only activations in a 10-tick run
	// are ticks 4 and 9.
	e.Timeline().At(testStart.Add(3*time.Second), "setpoint", func(env *Env) {
		firedTick = env.clock.Tick()
		setting = 42
	})
	if err := e.RunTicks(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if firedTick != 3 {
		t.Errorf("event fired on tick %d, want 3", firedTick)
	}
	if e.Timeline().Len() != 0 {
		t.Errorf("timeline still holds %d events", e.Timeline().Len())
	}
	if len(dev.fires) == 0 || dev.fires[0] != 4 {
		t.Fatalf("device fires = %v, want first fire on tick 4", dev.fires)
	}
	if seen != 42 {
		t.Errorf("device observed setting %v at its due tick, want 42", seen)
	}
}

// TestSameTickOrderingWithWheel pins intra-tick ordering: on a due tick
// the timeline fires first, then active components step in registration
// order regardless of which scheduling path (always list or wheel) they
// arrived by.
func TestSameTickOrderingWithWheel(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	var order []string
	note := func(s string) { order = append(order, s) }
	e.Register(ComponentFunc{ID: "a", Fn: func(*Env) { note("a") }})
	dev := &accumCadenced{name: "b", periodS: 2}
	dev.observe = func() { note("b") }
	e.Register(dev)
	e.Register(ComponentFunc{ID: "c", Fn: func(*Env) { note("c") }})
	e.Timeline().At(testStart.Add(1*time.Second), "ev", func(*Env) { note("ev") })
	if err := e.RunTicks(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	// Period 2 s fires on ticks 1 and 3; the event lands on tick 1.
	want := []string{"a", "c", "ev", "a", "b", "c", "a", "c", "a", "b", "c"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestCancellationCatchesUp verifies the context-cancellation return path
// also flushes cadenced bookkeeping through the last executed tick.
func TestCancellationCatchesUp(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	dev := &accumCadenced{name: "dev", periodS: 1 << 20}
	e.Register(dev)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunTicks(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancelled run executed zero ticks, and catch-up must agree.
	if dev.ticks != 0 {
		t.Errorf("device covers %d ticks after immediate cancellation, want 0", dev.ticks)
	}
}

// TestCompletionCatchesUp verifies a normally completed run leaves a
// cadenced component's bookkeeping covering every executed tick even when
// the run ends strictly between due ticks.
func TestCompletionCatchesUp(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	dev := &accumCadenced{name: "dev", periodS: 7}
	e.Register(dev)
	if err := e.RunTicks(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if dev.ticks != 10 {
		t.Errorf("device bookkeeping covers %d ticks, want 10", dev.ticks)
	}
	if len(dev.fires) != 1 || dev.fires[0] != 6 {
		t.Errorf("fires = %v, want exactly [6]", dev.fires)
	}
	// A second run resumes cleanly from the flushed state.
	if err := e.RunTicks(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if dev.ticks != 20 {
		t.Errorf("device bookkeeping covers %d ticks after resume, want 20", dev.ticks)
	}
	if len(dev.fires) != 2 || dev.fires[1] != 13 {
		t.Errorf("fires = %v, want second fire on tick 13", dev.fires)
	}
}

// TestOnDemandWake pins on-demand scheduling: the component steps only
// on ticks it was woken for, a wake from an earlier-ordered component
// lands the same tick, and a wake from outside the run loop is not lost.
func TestOnDemandWake(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	var stepped []uint64
	var wake func()
	e.Register(ComponentFunc{ID: "producer", Fn: func(env *Env) {
		if tk := env.clock.Tick(); tk == 2 || tk == 7 {
			wake()
		}
	}})
	wake = e.Register(ComponentFunc{ID: "net", Fn: func(env *Env) {
		stepped = append(stepped, env.clock.Tick())
	}}, WithOnDemand()).Wake
	if err := e.RunTicks(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	want := []uint64{2, 7}
	if fmt.Sprint(stepped) != fmt.Sprint(want) {
		t.Errorf("on-demand stepped on %v, want %v", stepped, want)
	}
	stats := e.StepStats()
	if stats[1].Kind != "on-demand" || stats[1].Steps != 2 || stats[1].Skipped != 8 {
		t.Errorf("on-demand stats = %+v, want on-demand 2/8", stats[1])
	}

	// A wake issued between runs steps the component on the next tick.
	wake()
	if err := e.RunTicks(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(stepped) != fmt.Sprint([]uint64{2, 7, 10}) {
		t.Errorf("after out-of-loop wake, stepped = %v, want [2 7 10]", stepped)
	}
}

// TestWakeAfterPositionLandsNextTick documents the one-tick latency when
// the waker is ordered after the on-demand component: the flag persists
// and the component steps on the following tick.
func TestWakeAfterPositionLandsNextTick(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	var stepped []uint64
	wake := e.Register(ComponentFunc{ID: "net", Fn: func(env *Env) {
		stepped = append(stepped, env.clock.Tick())
	}}, WithOnDemand()).Wake
	e.Register(ComponentFunc{ID: "late-producer", Fn: func(env *Env) {
		if env.clock.Tick() == 4 {
			wake()
		}
	}})
	if err := e.RunTicks(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(stepped) != fmt.Sprint([]uint64{5}) {
		t.Errorf("stepped = %v, want [5]", stepped)
	}
}

// TestFarHorizonCadence exercises the far-heap path: cadences longer than
// the wheel horizon (64 ticks) must still fire on exactly the right tick.
func TestFarHorizonCadence(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	slow := &accumCadenced{name: "slow", periodS: 200}
	fast := &accumCadenced{name: "fast", periodS: 2}
	e.Register(slow)
	e.Register(fast)
	if err := e.RunTicks(context.Background(), 450); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{199, 399}; fmt.Sprint(slow.fires) != fmt.Sprint(want) {
		t.Errorf("slow fires = %v, want %v", slow.fires, want)
	}
	if len(fast.fires) != 225 {
		t.Errorf("fast fired %d times, want 225", len(fast.fires))
	}
	if slow.ticks != 450 || fast.ticks != 450 {
		t.Errorf("bookkeeping covers %d/%d ticks, want 450/450", slow.ticks, fast.ticks)
	}
}

// TestWheelAllocatesNothingAfterRegistration pins the wheel's slot lists:
// once its components are registered, an engine steps cadenced ones
// without allocating, from its first tick on. A fleet steps thousands of
// engines, and slot storage grown while they run is tens of MB of
// garbage in a large fleet's first ticks: enough to set off a collection
// of the whole fleet's heap while it is being timed.
func TestWheelAllocatesNothingAfterRegistration(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	e.Register(ComponentFunc{ID: "plant", Fn: func(*Env) {}})
	const ticks = 1000
	for i, periodS := range []float64{2, 2, 3, 3, 4, 5, 5, 7, 90, 200} {
		e.Register(&accumCadenced{name: fmt.Sprintf("dev%d", i), periodS: periodS,
			fires: make([]uint64, 0, ticks)})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := e.RunTicks(context.Background(), ticks)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d ticks allocated %d times, want 0", ticks, n)
	}
}
