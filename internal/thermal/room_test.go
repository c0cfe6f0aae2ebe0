package thermal

import (
	"context"
	"math"
	"testing"
	"time"

	"bubblezero/internal/psychro"
	"bubblezero/internal/sim"
)

var testStart = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)

func runRoom(t *testing.T, r *Room, d time.Duration) {
	t.Helper()
	e := sim.NewEngine(sim.MustClock(testStart, time.Second), 7)
	e.Register(r)
	if err := e.RunFor(context.Background(), d); err != nil {
		t.Fatal(err)
	}
}

func newTestRoom(t *testing.T, initial psychro.State, co2 float64) *Room {
	t.Helper()
	r, err := NewRoom(DefaultConfig(), initial, co2)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.ZoneVolume = 0 },
		func(c *Config) { c.ThermalCapMult = 0.5 },
		func(c *Config) { c.MoistureCapMult = 0 },
		func(c *Config) { c.EnvelopeUA = -1 },
		func(c *Config) { c.InfiltrationACH = -1 },
		func(c *Config) { c.InterZoneFlow = -1 },
		func(c *Config) { c.DoorFlow = -1 },
		func(c *Config) { c.OutdoorCO2PPM = -1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestZoneIDNaming(t *testing.T) {
	if got := ZoneID(0).String(); got != "subspace-1" {
		t.Errorf("ZoneID(0) = %q, want subspace-1", got)
	}
	if got := ZoneID(3).String(); got != "subspace-4" {
		t.Errorf("ZoneID(3) = %q, want subspace-4", got)
	}
	if ZoneID(-1).Valid() || ZoneID(4).Valid() {
		t.Error("out-of-range zone IDs reported valid")
	}
}

func TestRoomStartsAtInitialState(t *testing.T) {
	init := psychro.NewStateDewPoint(28.9, 27.4, 0)
	r := newTestRoom(t, init, 410)
	for i := 0; i < NumZones; i++ {
		z := r.Zone(ZoneID(i))
		if z.T != 28.9 {
			t.Errorf("zone %d T = %v, want 28.9", i, z.T)
		}
		if math.Abs(z.DewPoint()-27.4) > 0.01 {
			t.Errorf("zone %d dew = %v, want 27.4", i, z.DewPoint())
		}
	}
	if got := r.AverageT(); got != 28.9 {
		t.Errorf("AverageT = %v", got)
	}
}

func TestFreeFloatingRoomStaysAtOutdoorEquilibrium(t *testing.T) {
	r, err := NewRoomAtOutdoor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runRoom(t, r, time.Hour)
	if math.Abs(r.AverageT()-28.9) > 0.05 {
		t.Errorf("equilibrium T drifted to %v", r.AverageT())
	}
	if math.Abs(r.AverageDewPoint()-27.4) > 0.05 {
		t.Errorf("equilibrium dew drifted to %v", r.AverageDewPoint())
	}
}

func TestCoolRoomWarmsTowardOutdoor(t *testing.T) {
	r := newTestRoom(t, psychro.State{T: 22, W: psychro.HumidityRatio(22, 50, psychro.AtmPressure), P: psychro.AtmPressure}, 410)
	before := r.AverageT()
	runRoom(t, r, 30*time.Minute)
	after := r.AverageT()
	if after <= before {
		t.Errorf("cool room did not warm: %v -> %v", before, after)
	}
	if after > 28.9 {
		t.Errorf("room overshot outdoor temperature: %v", after)
	}
}

func TestPanelExtractionCoolsRoom(t *testing.T) {
	r, err := NewRoomAtOutdoor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < NumZones; i++ {
		r.SetPanelExtraction(ZoneID(i), 400) // 1.6 kW total
	}
	runRoom(t, r, 30*time.Minute)
	if r.AverageT() >= 27 {
		t.Errorf("1.6 kW extraction left room at %v °C after 30 min", r.AverageT())
	}
	// Panels remove sensible heat only: dew point should barely move.
	if math.Abs(r.AverageDewPoint()-27.4) > 0.3 {
		t.Errorf("dew point moved to %v under dry cooling", r.AverageDewPoint())
	}
}

func TestVentilationDriesRoom(t *testing.T) {
	r, err := NewRoomAtOutdoor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dry := psychro.NewStateDewPoint(18, 16, 0)
	for i := 0; i < NumZones; i++ {
		r.SetVent(ZoneID(i), VentInput{VolFlow: 0.012, Supply: dry, SupplyCO2PPM: 410})
	}
	before := r.AverageDewPoint()
	runRoom(t, r, 30*time.Minute)
	after := r.AverageDewPoint()
	if after >= before-2 {
		t.Errorf("ventilation barely dried room: %v -> %v", before, after)
	}
	if after < 16 {
		t.Errorf("room dew point %v fell below supply dew point", after)
	}
}

func TestOccupantsRaiseCO2AndHeat(t *testing.T) {
	r := newTestRoom(t, psychro.State{T: 25, W: psychro.HumidityRatio(25, 55, psychro.AtmPressure), P: psychro.AtmPressure}, 410)
	r.SetOccupants(0, 3)
	if r.in.occupants[0] != 3 {
		t.Fatalf("occupants = %d, want 3", r.in.occupants[0])
	}
	runRoom(t, r, 20*time.Minute)
	if r.Zone(0).CO2PPM <= 500 {
		t.Errorf("zone-1 CO2 = %v ppm, want noticeable rise above 500", r.Zone(0).CO2PPM)
	}
	// Adjacent zones see some CO2 via mixing; all above outdoor.
	for i := 0; i < NumZones; i++ {
		if r.Zone(ZoneID(i)).CO2PPM < 410 {
			t.Errorf("zone %d CO2 %v fell below outdoor", i, r.Zone(ZoneID(i)).CO2PPM)
		}
	}
}

func TestDoorOpeningHitsSubspace1And2First(t *testing.T) {
	// Cooled, dry room; open the hot humid door briefly. The paper: "As
	// the door is in subspace-1 and close to subspace-2, the humidities of
	// the two subspaces immediately increase".
	r := newTestRoom(t, psychro.NewStateDewPoint(25, 18, 0), 500)
	r.OpenDoor(15 * time.Second)
	if !r.DoorOpen() {
		t.Fatal("door should be open")
	}
	runRoom(t, r, 30*time.Second)
	if r.DoorOpen() {
		t.Error("door should have closed after 15 s")
	}
	d0 := r.Zone(0).DewPoint() - 18
	d1 := r.Zone(1).DewPoint() - 18
	d3 := r.Zone(3).DewPoint() - 18
	if d0 <= 0 {
		t.Fatalf("subspace-1 dew did not rise (delta %v)", d0)
	}
	if d0 <= d3 {
		t.Errorf("door zone rise (%v) should exceed far zone rise (%v)", d0, d3)
	}
	if d1 <= d3 {
		t.Errorf("adjacent zone rise (%v) should exceed far zone rise (%v)", d1, d3)
	}
	// The paper reports roughly a 0.6 °C dew blip for a 15 s opening.
	if d0 < 0.1 || d0 > 2.0 {
		t.Errorf("subspace-1 dew blip = %.2f °C, want O(0.6)", d0)
	}
}

func TestWindowOpeningHitsSubspace3(t *testing.T) {
	r := newTestRoom(t, psychro.NewStateDewPoint(25, 18, 0), 500)
	r.OpenWindow(30 * time.Second)
	runRoom(t, r, time.Minute)
	d2 := r.Zone(2).DewPoint() - 18
	d1 := r.Zone(1).DewPoint() - 18
	if d2 <= d1 {
		t.Errorf("window zone rise (%v) should exceed diagonal zone rise (%v)", d2, d1)
	}
	if r.windowRemaining > 0 {
		t.Error("window should have closed")
	}
}

func TestDoorReopenExtends(t *testing.T) {
	r := newTestRoom(t, psychro.NewStateDewPoint(25, 18, 0), 500)
	r.OpenDoor(10 * time.Second)
	r.OpenDoor(2 * time.Minute)
	runRoom(t, r, time.Minute)
	if !r.DoorOpen() {
		t.Error("door should still be open after extension")
	}
	if r.doorOpenings != 2 {
		t.Errorf("door openings = %d, want 2", r.doorOpenings)
	}
}

func TestCondensationRemovesMoisture(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnvelopeUA = 0
	cfg.InfiltrationACH = 0
	cfg.InterZoneFlow = 0
	r, err := NewRoom(cfg, psychro.NewStateDewPoint(25, 20, 0), 500)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Zone(0).W
	r.SetCondensation(0, 1e-5)
	runRoom(t, r, 10*time.Minute)
	if r.Zone(0).W >= before {
		t.Errorf("condensation did not reduce W: %v -> %v", before, r.Zone(0).W)
	}
	// Negative rates are rejected.
	r.SetCondensation(0, -1)
	w := r.Zone(0).W
	runRoom(t, r, time.Minute)
	if r.Zone(0).W > w+1e-9 {
		t.Error("negative condensation rate added moisture")
	}
}

func TestInterZoneMixingEqualises(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnvelopeUA = 0
	cfg.InfiltrationACH = 0
	r, err := NewRoom(cfg, psychro.State{T: 25, W: psychro.HumidityRatio(25, 50, psychro.AtmPressure), P: psychro.AtmPressure}, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb zone 0 hot, zone 3 cold; mixing must converge them.
	r.t[0] = 30
	r.t[3] = 20
	r.recomputeDerived()
	runRoom(t, r, 2*time.Hour)
	spread := r.t[0] - r.t[3]
	if math.Abs(spread) > 0.5 {
		t.Errorf("zones did not equalise: spread %v", spread)
	}
	// Average temperature preserved (no external exchange).
	if math.Abs(r.AverageT()-25) > 0.1 {
		t.Errorf("mixing changed mean temperature to %v", r.AverageT())
	}
}

func TestSettersIgnoreInvalidZone(t *testing.T) {
	r := newTestRoom(t, psychro.State{T: 25, W: psychro.HumidityRatio(25, 50, psychro.AtmPressure), P: psychro.AtmPressure}, 500)
	r.SetPanelExtraction(ZoneID(99), 1e6)
	r.SetVent(ZoneID(-1), VentInput{VolFlow: 1e6})
	r.SetOccupants(ZoneID(99), 50)
	runRoom(t, r, time.Minute)
	if math.Abs(r.AverageT()-25) > 0.5 {
		t.Errorf("invalid-zone setters perturbed the room: T=%v", r.AverageT())
	}
	if got := r.Zone(ZoneID(99)); got != (ZoneState{}) {
		t.Errorf("Zone(invalid) = %+v, want zero", got)
	}
}

func TestPullDownTimescaleMatchesPaper(t *testing.T) {
	// With loads representative of the real system (panels ~965 W total,
	// ventilation ~0.05 m³/s of 16 °C-dew air), the room must approach
	// 25 °C / 18 °C dew in roughly 30 minutes — the paper's headline
	// convergence (Figure 10). We accept 20–60 minutes here; the precise
	// trajectory is asserted in the core-system integration tests.
	r, err := NewRoomAtOutdoor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dry := psychro.NewStateDewPoint(17, 15.5, 0)
	e := sim.NewEngine(sim.MustClock(testStart, time.Second), 7)
	e.Register(r)
	e.Register(sim.ComponentFunc{ID: "loads", Fn: func(*sim.Env) {
		for i := 0; i < NumZones; i++ {
			r.SetPanelExtraction(ZoneID(i), 330)
			r.SetVent(ZoneID(i), VentInput{VolFlow: 0.016, Supply: dry, SupplyCO2PPM: 410})
		}
	}})
	var reachedT, reachedDew time.Duration
	if err := e.RunTicks(context.Background(), 5400); err != nil {
		t.Fatal(err)
	}
	// Re-run with tracking via a fresh engine would be cleaner; instead
	// walk the trajectory manually.
	r2, err := NewRoomAtOutdoor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e2 := sim.NewEngine(sim.MustClock(testStart, time.Second), 7)
	e2.Register(r2)
	e2.Register(sim.ComponentFunc{ID: "loads", Fn: func(env *sim.Env) {
		for i := 0; i < NumZones; i++ {
			r2.SetPanelExtraction(ZoneID(i), 330)
			r2.SetVent(ZoneID(i), VentInput{VolFlow: 0.016, Supply: dry, SupplyCO2PPM: 410})
		}
		if reachedT == 0 && r2.AverageT() <= 25.2 {
			reachedT = env.Elapsed()
		}
		if reachedDew == 0 && r2.AverageDewPoint() <= 18.2 {
			reachedDew = env.Elapsed()
		}
	}})
	if err := e2.RunTicks(context.Background(), 5400); err != nil {
		t.Fatal(err)
	}
	if reachedT == 0 || reachedT < 15*time.Minute || reachedT > 70*time.Minute {
		t.Errorf("temperature pull-down took %v, want ≈30 min", reachedT)
	}
	if reachedDew == 0 || reachedDew < 10*time.Minute || reachedDew > 70*time.Minute {
		t.Errorf("dew-point pull-down took %v, want ≈30 min", reachedDew)
	}
}
