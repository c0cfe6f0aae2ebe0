package fault

import (
	"context"
	"strings"
	"testing"
	"time"

	"bubblezero/internal/sim"
)

func TestEventValidate(t *testing.T) {
	cases := []struct {
		name    string
		ev      Event
		wantErr string // substring; empty means valid
	}{
		{"battery deplete", Event{Kind: KindBatteryDeplete, At: time.Minute, Node: "bt-temp-1"}, ""},
		{"battery scale", BatteryScale(time.Minute, "bt-temp-1", 0.5), ""},
		{"sensor stuck", SensorStuck(time.Minute, time.Minute, "bt-temp-1"), ""},
		{"sensor drift", SensorDrift(time.Minute, time.Minute, "bt-temp-1", -0.01), ""},
		{"mote offline", MoteOffline(time.Minute, time.Minute, "bt-temp-1"), ""},
		{"burst loss", BurstLoss(time.Minute, time.Minute, 0.9), ""},
		{"jam", Jam(time.Minute, time.Minute), ""},
		{"chiller trip", ChillerTrip(time.Minute, time.Minute, LoopRadiant), ""},
		{"pump degrade", PumpDegrade(time.Minute, time.Minute, LoopVent, 0.3), ""},
		{"permanent stuck", SensorStuck(time.Minute, 0, "bt-temp-1"), ""},
		{"dead pump", PumpDegrade(0, time.Minute, LoopRadiant, 0), ""},

		{"unknown kind", Event{Kind: Kind(99)}, "unknown kind"},
		{"negative at", Jam(-time.Second, time.Minute), "At must be"},
		{"negative for", Event{Kind: KindJam, For: -time.Second}, "For must be"},
		{"missing node", Event{Kind: KindSensorStuck, At: time.Minute}, "Node is required"},
		{"stray node", Event{Kind: KindJam, Node: "bt-temp-1"}, "Node must be empty"},
		{"missing loop", Event{Kind: KindChillerTrip}, "Loop must be"},
		{"bad loop", ChillerTrip(0, time.Minute, Loop("boiler")), "Loop must be"},
		{"stray loop", Event{Kind: KindJam, Loop: LoopVent}, "Loop must be empty"},
		{"deplete with for", Event{Kind: KindBatteryDeplete, Node: "x", For: time.Minute}, "permanent"},
		{"scale too big", BatteryScale(0, "x", 1.5), "Magnitude"},
		{"scale zero", BatteryScale(0, "x", 0), "Magnitude"},
		{"loss zero", BurstLoss(0, time.Minute, 0), "Magnitude"},
		{"loss too big", BurstLoss(0, time.Minute, 1.5), "Magnitude"},
		{"drift zero", SensorDrift(0, time.Minute, "x", 0), "non-zero"},
		{"degrade to full", PumpDegrade(0, time.Minute, LoopVent, 1), "Magnitude"},
		{"stuck with magnitude", Event{Kind: KindSensorStuck, Node: "x", Magnitude: 2}, "Magnitude must be 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.ev.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestPlanValidateIndexesBadEvent(t *testing.T) {
	_, err := NewPlan(Jam(0, time.Minute), BurstLoss(0, time.Minute, 2))
	if err == nil || !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("NewPlan error = %v, want it to name event 1", err)
	}
}

func TestEmptyPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan should be empty")
	}
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan Validate() = %v", err)
	}
	if p := MustPlan(); !p.Empty() {
		t.Fatal("zero-event plan should be empty")
	}
	if p := MustPlan(Jam(0, time.Minute)); p.Empty() {
		t.Fatal("plan with events should not be empty")
	}
}

// fakeSensor, fakeNet, and fakePlant record the calls a plan makes.
type fakeSensor struct {
	depleted  bool
	scaledTo  float64
	stuck     bool
	driftRate float64
	offline   bool
}

func (f *fakeSensor) DepleteBattery()                 { f.depleted = true }
func (f *fakeSensor) ScaleBatteryRemaining(p float64) { f.scaledTo = p }
func (f *fakeSensor) SetStuck(on bool)                { f.stuck = on }
func (f *fakeSensor) SetDrift(r float64)              { f.driftRate = r }
func (f *fakeSensor) SetOffline(on bool)              { f.offline = on }

type fakeNet struct {
	boost  float64
	jammed bool
}

func (f *fakeNet) SetLossBoost(p float64) { f.boost = p }
func (f *fakeNet) SetJammed(on bool)      { f.jammed = on }

type fakePlant struct {
	tripped map[Loop]bool
	derate  map[Loop]float64
}

func (f *fakePlant) SetChillerTripped(l Loop, on bool) { f.tripped[l] = on }
func (f *fakePlant) SetPumpDerate(l Loop, p float64)   { f.derate[l] = p }

func newFakeTarget() (*fakeSensor, *fakeNet, *fakePlant, Target) {
	fs := &fakeSensor{}
	fn := &fakeNet{}
	fp := &fakePlant{tripped: map[Loop]bool{}, derate: map[Loop]float64{}}
	tgt := Target{
		Sensor: func(node string) SensorTarget {
			if node == "bt-temp-1" {
				return fs
			}
			return nil
		},
		Network: fn,
		Plant:   fp,
	}
	return fs, fn, fp, tgt
}

// run builds an engine at a 1 s step, applies the plan, and advances it
// tick by tick, invoking probe after every tick.
func run(t *testing.T, p *Plan, tgt Target, ticks int, probe func(tick int)) {
	t.Helper()
	start := time.Date(2014, 3, 1, 9, 0, 0, 0, time.UTC)
	eng := sim.NewEngine(sim.MustClock(start, time.Second), 1)
	if err := p.Apply(eng.Timeline(), start, tgt); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for i := 0; i < ticks; i++ {
		if err := eng.RunTicks(context.Background(), 1); err != nil {
			t.Fatalf("RunTicks: %v", err)
		}
		probe(i)
	}
}

func TestApplyInjectsAndClearsOnSchedule(t *testing.T) {
	fs, fn, fp, tgt := newFakeTarget()
	p := MustPlan(
		SensorStuck(2*time.Second, 3*time.Second, "bt-temp-1"),
		BurstLoss(4*time.Second, 2*time.Second, 0.5),
		Jam(1*time.Second, 8*time.Second),
		ChillerTrip(3*time.Second, 4*time.Second, LoopRadiant),
		PumpDegrade(3*time.Second, 4*time.Second, LoopVent, 0.25),
		BatteryScale(6*time.Second, "bt-temp-1", 0.125),
	)
	// Expected windows, by tick index i (probe runs after tick i, i.e.
	// after simulated second i+1; a fault At=a For=d is active on the
	// ticks covering (a, a+d]).
	run(t, p, tgt, 12, func(i int) {
		sec := i + 1 // timeline events at offset s fire during tick index s
		wantStuck := sec > 2 && sec <= 5
		if fs.stuck != wantStuck {
			t.Fatalf("sec %d: stuck = %v, want %v", sec, fs.stuck, wantStuck)
		}
		wantBoost := 0.0
		if sec > 4 && sec <= 6 {
			wantBoost = 0.5
		}
		if fn.boost != wantBoost {
			t.Fatalf("sec %d: boost = %v, want %v", sec, fn.boost, wantBoost)
		}
		wantJam := sec > 1 && sec <= 9
		if fn.jammed != wantJam {
			t.Fatalf("sec %d: jammed = %v, want %v", sec, fn.jammed, wantJam)
		}
		wantTrip := sec > 3 && sec <= 7
		if fp.tripped[LoopRadiant] != wantTrip {
			t.Fatalf("sec %d: tripped = %v, want %v", sec, fp.tripped[LoopRadiant], wantTrip)
		}
		wantDerate := 1.0
		if sec > 3 && sec <= 7 {
			wantDerate = 0.25
		}
		if sec > 3 && fp.derate[LoopVent] != wantDerate {
			t.Fatalf("sec %d: derate = %v, want %v", sec, fp.derate[LoopVent], wantDerate)
		}
		if sec > 6 && fs.scaledTo != 0.125 {
			t.Fatalf("sec %d: scaledTo = %v, want 0.125", sec, fs.scaledTo)
		}
	})
}

func TestApplyPermanentFaultNeverClears(t *testing.T) {
	fs, _, _, tgt := newFakeTarget()
	p := MustPlan(
		Event{Kind: KindBatteryDeplete, At: time.Second, Node: "bt-temp-1"},
		SensorDrift(time.Second, 0, "bt-temp-1", -0.01),
	)
	run(t, p, tgt, 10, func(i int) {
		if i+1 > 1 {
			if !fs.depleted {
				t.Fatalf("sec %d: battery not depleted", i+1)
			}
			if fs.driftRate != -0.01 {
				t.Fatalf("sec %d: drift = %v, want -0.01", i+1, fs.driftRate)
			}
		}
	})
}

func TestApplyRejectsUnknownNodeEagerly(t *testing.T) {
	_, _, _, tgt := newFakeTarget()
	p := MustPlan(SensorStuck(time.Minute, time.Minute, "bt-nope-9"))
	start := time.Date(2014, 3, 1, 9, 0, 0, 0, time.UTC)
	tl := sim.NewTimeline()
	err := p.Apply(tl, start, tgt)
	if err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatalf("Apply = %v, want unknown-node error", err)
	}
	if tl.Len() != 0 {
		t.Fatalf("failed Apply left %d events scheduled", tl.Len())
	}
}

func TestApplyRejectsMissingSurfaces(t *testing.T) {
	start := time.Date(2014, 3, 1, 9, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name string
		p    *Plan
		want string
	}{
		{"no sensor resolver", MustPlan(Event{Kind: KindBatteryDeplete, Node: "x"}), "sensor resolver"},
		{"no network", MustPlan(Jam(0, time.Minute)), "network surface"},
		{"no plant", MustPlan(ChillerTrip(0, time.Minute, LoopVent)), "plant surface"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Apply(sim.NewTimeline(), start, Target{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Apply = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestApplyEmptyPlanSchedulesNothing(t *testing.T) {
	tl := sim.NewTimeline()
	var nilPlan *Plan
	if err := nilPlan.Apply(tl, time.Now(), Target{}); err != nil {
		t.Fatalf("nil plan Apply = %v", err)
	}
	if tl.Len() != 0 {
		t.Fatalf("nil plan scheduled %d events", tl.Len())
	}
}
