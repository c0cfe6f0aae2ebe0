package sim

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

var testStart = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)

func TestNewClockRejectsNonPositiveStep(t *testing.T) {
	for _, step := range []time.Duration{0, -time.Second} {
		if _, err := NewClock(testStart, step); err == nil {
			t.Errorf("NewClock(step=%v) expected error", step)
		}
	}
}

func TestClockAdvance(t *testing.T) {
	c := MustClock(testStart, time.Second)
	if got := c.Now(); !got.Equal(testStart) {
		t.Fatalf("Now() = %v, want %v", got, testStart)
	}
	for i := 0; i < 90; i++ {
		c.Advance()
	}
	want := testStart.Add(90 * time.Second)
	if got := c.Now(); !got.Equal(want) {
		t.Errorf("after 90 steps Now() = %v, want %v", got, want)
	}
	if got := c.Elapsed(); got != 90*time.Second {
		t.Errorf("Elapsed() = %v, want 90s", got)
	}
	if got := c.Tick(); got != 90 {
		t.Errorf("Tick() = %d, want 90", got)
	}
}

func TestClockSubSecondStep(t *testing.T) {
	c := MustClock(testStart, 250*time.Millisecond)
	for i := 0; i < 7; i++ {
		c.Advance()
	}
	want := testStart.Add(1750 * time.Millisecond)
	if got := c.Now(); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
}

func TestRNGStreamsAreDeterministic(t *testing.T) {
	a := NewRNG(42).Stream("thermal")
	b := NewRNG(42).Stream("thermal")
	for i := 0; i < 100; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("draw %d differs: %v vs %v", i, av, bv)
		}
	}
}

func TestRNGStreamsAreIndependentByName(t *testing.T) {
	root := NewRNG(42)
	a := root.Stream("thermal")
	b := root.Stream("network")
	same := 0
	const n = 64
	for i := 0; i < n; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == n {
		t.Fatal("streams with different names produced identical sequences")
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1).Stream("s")
	b := NewRNG(2).Stream("s")
	same := 0
	const n = 64
	for i := 0; i < n; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestEngineStepsComponentsInOrder(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	var order []string
	mk := func(name string) Component {
		return ComponentFunc{ID: name, Fn: func(*Env) { order = append(order, name) }}
	}
	e.Register(mk("plant"))
	e.Register(mk("sensors"))
	e.Register(mk("controller"))
	if err := e.RunTicks(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	want := []string{"plant", "sensors", "controller", "plant", "sensors", "controller"}
	if len(order) != len(want) {
		t.Fatalf("got %d calls, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("call %d = %s, want %s", i, order[i], want[i])
		}
	}
}

func TestEngineRunForWholeTicks(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	n := 0
	e.Register(ComponentFunc{ID: "count", Fn: func(*Env) { n++ }})
	if err := e.RunFor(context.Background(), 90*time.Second); err != nil {
		t.Fatal(err)
	}
	if n != 90 {
		t.Errorf("component stepped %d times, want 90", n)
	}
}

func TestEngineRunForRejectsNegativeDuration(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	n := 0
	e.Register(ComponentFunc{ID: "count", Fn: func(*Env) { n++ }})
	if err := e.RunFor(context.Background(), -time.Second); err == nil {
		t.Error("RunFor(-1s) returned nil, want an error")
	}
	if now := e.Clock().Now(); !now.Equal(testStart) || n != 0 {
		t.Errorf("RunFor(-1s) moved the clock to %v and stepped %d times, want no change", now, n)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	e.Register(ComponentFunc{ID: "noop", Fn: func(*Env) {}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunTicks(ctx, 10)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("RunTicks with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestEnvExposesClock(t *testing.T) {
	e := NewEngine(MustClock(testStart, 2*time.Second), 1)
	var dts []float64
	var ticks []uint64
	e.Register(ComponentFunc{ID: "probe", Fn: func(env *Env) {
		dts = append(dts, env.Dt())
		ticks = append(ticks, env.clock.Tick())
	}})
	if err := e.RunTicks(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	for i, dt := range dts {
		if dt != 2.0 {
			t.Errorf("Dt at tick %d = %v, want 2.0", i, dt)
		}
	}
	for i, tk := range ticks {
		if tk != uint64(i) {
			t.Errorf("Tick %d reported as %d", i, tk)
		}
	}
}

func TestTimelineFiresInOrder(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	e.Register(ComponentFunc{ID: "noop", Fn: func(*Env) {}})
	var fired []string
	e.Timeline().At(testStart.Add(5*time.Second), "b", func(*Env) { fired = append(fired, "b") })
	e.Timeline().At(testStart.Add(2*time.Second), "a", func(*Env) { fired = append(fired, "a") })
	e.Timeline().At(testStart.Add(5*time.Second), "c", func(*Env) { fired = append(fired, "c") })
	if err := e.RunTicks(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("fired[%d] = %s, want %s", i, fired[i], want[i])
		}
	}
	if e.Timeline().Len() != 0 {
		t.Errorf("timeline still has %d events", e.Timeline().Len())
	}
}

func TestTimelineEventAtStartFiresOnFirstTick(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	fired := false
	e.Timeline().At(testStart, "boot", func(*Env) { fired = true })
	if err := e.RunTicks(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event scheduled at clock start did not fire on tick 0")
	}
}

func TestTimelinePastEventFiresImmediately(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	fired := false
	e.Timeline().At(testStart.Add(-time.Hour), "past", func(*Env) { fired = true })
	if err := e.RunTicks(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("past-dated event did not fire")
	}
}

// Property: clock time after n steps equals start + n*step for any small n
// and step.
func TestClockAdvanceProperty(t *testing.T) {
	f := func(nRaw uint16, stepMsRaw uint16) bool {
		n := uint64(nRaw % 1000)
		stepMs := int64(stepMsRaw%5000) + 1
		c := MustClock(testStart, time.Duration(stepMs)*time.Millisecond)
		for i := uint64(0); i < n; i++ {
			c.Advance()
		}
		want := testStart.Add(time.Duration(int64(n)*stepMs) * time.Millisecond)
		return c.Now().Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: timeline fires every scheduled event exactly once regardless of
// scheduling order, as long as the run covers the horizon.
func TestTimelineAllEventsFireProperty(t *testing.T) {
	f := func(offsets []uint8) bool {
		if len(offsets) > 50 {
			offsets = offsets[:50]
		}
		e := NewEngine(MustClock(testStart, time.Second), 1)
		count := 0
		for _, off := range offsets {
			at := testStart.Add(time.Duration(off%100) * time.Second)
			e.Timeline().At(at, "ev", func(*Env) { count++ })
		}
		if err := e.RunTicks(context.Background(), 101); err != nil {
			return false
		}
		return count == len(offsets)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCtxCheckEveryStepAware(t *testing.T) {
	cases := []struct {
		step time.Duration
		want uint64
	}{
		{time.Second, 60},             // one simulated minute
		{30 * time.Second, 2},         // coarse step, still once a minute
		{2 * time.Minute, 1},          // step longer than the bound
		{time.Millisecond, 4096},      // fine step hits the tick cap
		{15 * time.Millisecond, 4000}, // just under the cap
	}
	for _, tc := range cases {
		e := NewEngine(MustClock(time.Unix(0, 0).UTC(), tc.step), 1)
		if got := e.ctxCheckEvery(); got != tc.want {
			t.Errorf("step %v: ctxCheckEvery = %d, want %d", tc.step, got, tc.want)
		}
	}
}

func TestRunForCancellationLatencyBoundedInSimTime(t *testing.T) {
	// With a coarse 30 s step, cancellation must be noticed within a
	// simulated minute (2 ticks), not 4096 ticks.
	e := NewEngine(MustClock(time.Unix(0, 0).UTC(), 30*time.Second), 1)
	ctx, cancel := context.WithCancel(context.Background())
	ticks := 0
	e.Register(ComponentFunc{ID: "counter", Fn: func(*Env) {
		ticks++
		if ticks == 1 {
			cancel()
		}
	}})
	err := e.RunFor(ctx, 24*time.Hour)
	if err == nil {
		t.Fatal("cancelled run should fail")
	}
	if ticks > 2 {
		t.Errorf("ran %d ticks after cancellation, want <= 2 (one simulated minute)", ticks)
	}
}

func TestRunForTruncatesPartialTicks(t *testing.T) {
	// RunFor rounds the duration DOWN to whole ticks: 90 s at a 60 s step
	// runs exactly one tick, and a duration shorter than the step runs
	// none. This pins the documented contract.
	cases := []struct {
		d     time.Duration
		ticks int
	}{
		{90 * time.Second, 1},
		{59 * time.Second, 0},
		{60 * time.Second, 1},
		{119 * time.Second, 1},
		{180 * time.Second, 3},
	}
	for _, tc := range cases {
		e := NewEngine(MustClock(time.Unix(0, 0).UTC(), time.Minute), 1)
		ticks := 0
		e.Register(ComponentFunc{ID: "counter", Fn: func(*Env) { ticks++ }})
		if err := e.RunFor(context.Background(), tc.d); err != nil {
			t.Fatal(err)
		}
		if ticks != tc.ticks {
			t.Errorf("RunFor(%v) at 60 s step ran %d ticks, want %d", tc.d, ticks, tc.ticks)
		}
	}
}

func TestNewEnvMatchesEngineEnv(t *testing.T) {
	clock := MustClock(time.Unix(0, 0).UTC(), 250*time.Millisecond)
	e := NewEngine(clock, 9)
	env := NewEnv(e.Clock(), e.RNG())
	if env.Dt() != 0.25 || env.clock.Step() != 250*time.Millisecond {
		t.Errorf("NewEnv dt = %v step = %v, want 0.25 / 250ms", env.Dt(), env.clock.Step())
	}
	if env.rng != e.RNG() || !env.Now().Equal(clock.Now()) {
		t.Error("NewEnv must expose the given clock and RNG")
	}
}
