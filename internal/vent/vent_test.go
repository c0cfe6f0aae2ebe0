package vent

import (
	"context"
	"math"
	"testing"
	"time"

	"bubblezero/internal/exergy"
	"bubblezero/internal/hydraulic"
	"bubblezero/internal/pid"
	"bubblezero/internal/psychro"
	"bubblezero/internal/sim"
)

var (
	testStart = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)
	tropical  = psychro.NewStateDewPoint(28.9, 27.4, 0)
)

func newTestTank(t *testing.T) *hydraulic.Tank {
	t.Helper()
	tank, err := hydraulic.NewTank(150, 8, exergy.DefaultChiller(), 2500)
	if err != nil {
		t.Fatal(err)
	}
	return tank
}

func newTestModule(t *testing.T) (*Module, *hydraulic.Tank) {
	t.Helper()
	tank := newTestTank(t)
	m, err := New(DefaultConfig(), tank, func() psychro.State { return tropical }, 410)
	if err != nil {
		t.Fatal(err)
	}
	return m, tank
}

func runModule(t *testing.T, m *Module, tank *hydraulic.Tank, d time.Duration, extra ...sim.Component) {
	t.Helper()
	e := sim.NewEngine(sim.MustClock(testStart, time.Second), 5)
	for _, c := range extra {
		e.Register(c)
	}
	e.Register(m)
	e.Register(sim.ComponentFunc{ID: "tank", Fn: func(env *sim.Env) {
		tank.Step(env.Dt(), 25, 28.9)
	}})
	if err := e.RunFor(context.Background(), d); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.HorizonS = 0 },
		func(c *Config) { c.ZoneVolumeM3 = 0 },
		func(c *Config) { c.PullDownOffsetK = -1 },
		func(c *Config) { c.CO2TargetPPM = 0 },
		func(c *Config) { c.Coil.MaxFlowLpm = 0 },
		func(c *Config) { c.Fan.MaxFlowM3s = 0 },
		func(c *Config) { c.DewPID.OutMax = -1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate", i)
		}
	}
}

func TestDefaultRHPrefMatches18DewAt25(t *testing.T) {
	m, _ := newTestModule(t)
	if dp := m.TPDew(); math.Abs(dp-18) > 0.1 {
		t.Errorf("T_p_dew = %v, want ≈18 (the paper's humidity target)", dp)
	}
}

func TestCoilLinearDewDrop(t *testing.T) {
	tank := newTestTank(t)
	cfg := DefaultConfig()
	cfg.Coil.TauS = 0 // examine the steady-state law directly
	pump := &hydraulic.Pump{MaxFlowLpm: cfg.Coil.MaxFlowLpm, MaxPowerW: 4, StandbyW: 0.2}
	box, err := NewAirbox(cfg.Coil, cfg.Fan, pump, cfg.DewPID)
	if err != nil {
		t.Fatal(err)
	}
	box.SetFanFlow(0.01)
	box.pump.SetFlow(1.0) // 1 L/min → 10 K drop from 27.4 → 17.4
	box.Process(tropical, tank, 1)
	if got := box.Outlet().DewPoint(); math.Abs(got-17.4) > 0.05 {
		t.Errorf("outlet dew = %v, want 17.4 (linear law)", got)
	}
	// Double flow: clamped at tank temp + approach = 9 °C.
	box.pump.SetFlow(2.0)
	box.Process(tropical, tank, 1)
	if got := box.Outlet().DewPoint(); math.Abs(got-9) > 0.05 {
		t.Errorf("outlet dew = %v, want clamp at 9", got)
	}
}

func TestCoilLagSmoothsResponse(t *testing.T) {
	tank := newTestTank(t)
	box := mustBox(t)
	box.SetFanFlow(0.01)
	box.pump.SetFlow(2.0)
	box.Process(tropical, tank, 1)
	first := box.Outlet().DewPoint()
	if first < tropical.DewPoint()-2 {
		t.Errorf("first-step dew %v dropped too fast for a lagged coil", first)
	}
	for i := 0; i < 300; i++ {
		box.Process(tropical, tank, 1)
	}
	if settled := box.Outlet().DewPoint(); math.Abs(settled-9) > 0.3 {
		t.Errorf("settled dew = %v, want ≈9", settled)
	}
}

func mustBox(t *testing.T) *Airbox {
	t.Helper()
	cfg := DefaultConfig()
	pump := &hydraulic.Pump{MaxFlowLpm: cfg.Coil.MaxFlowLpm, MaxPowerW: 4, StandbyW: 0.2}
	box, err := NewAirbox(cfg.Coil, cfg.Fan, pump, cfg.DewPID)
	if err != nil {
		t.Fatal(err)
	}
	return box
}

func TestAirboxIdleWhenFansOff(t *testing.T) {
	tank := newTestTank(t)
	box := mustBox(t)
	box.pump.SetFlow(2)
	box.Process(tropical, tank, 1)
	if box.CoilLoadW() != 0 || box.condensate != 0 {
		t.Error("idle box reported load or condensate")
	}
	if box.FlapOpen() {
		t.Error("flap open with fans off")
	}
}

func TestAirboxCondensateAndLoadPositive(t *testing.T) {
	tank := newTestTank(t)
	box := mustBox(t)
	box.SetFanFlow(0.015)
	box.pump.SetFlow(1.5)
	box.Process(tropical, tank, 1)
	if box.condensate <= 0 {
		t.Error("dehumidifying tropical air should condense water")
	}
	if box.CoilLoadW() <= 0 {
		t.Error("dehumidification should load the coil")
	}
	if !box.FlapOpen() {
		t.Error("flap should open when fans run")
	}
	// Outlet must be cooler and drier than intake.
	if box.Outlet().T >= tropical.T || box.Outlet().W >= tropical.W {
		t.Errorf("outlet %v not cooler/drier than intake %v", box.Outlet(), tropical)
	}
}

func TestAirboxFanClamp(t *testing.T) {
	box := mustBox(t)
	box.SetFanFlow(99)
	if got := box.FanFlow(); got != box.MaxFanFlow() {
		t.Errorf("fan flow = %v, want clamp at %v", got, box.MaxFanFlow())
	}
	box.SetFanFlow(-1)
	if box.FanFlow() != 0 {
		t.Error("negative fan command accepted")
	}
}

func TestNewValidation(t *testing.T) {
	tank := newTestTank(t)
	if _, err := New(DefaultConfig(), nil, func() psychro.State { return tropical }, 410); err == nil {
		t.Error("nil tank accepted")
	}
	if _, err := New(DefaultConfig(), tank, nil, 410); err == nil {
		t.Error("nil outdoor accepted")
	}
	if _, err := NewAirbox(DefaultCoil(), DefaultFan(), nil, DefaultConfig().DewPID); err == nil {
		t.Error("nil pump accepted")
	}
	if _, err := NewAirbox(CoilConfig{}, DefaultFan(),
		&hydraulic.Pump{MaxFlowLpm: 2}, DefaultConfig().DewPID); err == nil {
		t.Error("invalid coil accepted")
	}
	if _, err := NewAirbox(DefaultCoil(), DefaultFan(),
		&hydraulic.Pump{MaxFlowLpm: 2}, pid.Config{}); err == nil {
		t.Error("invalid PID accepted")
	}
}

func TestDewTargetDepressedDuringPullDown(t *testing.T) {
	m, tank := newTestModule(t)
	m.ObserveSupplyTemp(18)
	for z := 0; z < NumBoxes; z++ {
		m.ObserveZoneTemp(z, 28.9)
		m.ObserveZoneRH(z, 92) // humid: room dew ≈ 27.4, above target
	}
	runModule(t, m, tank, 10*time.Second)
	// T_r,t_dew = min(18, 18) = 18; room dew 27.4 > 18 → target 18−2 = 16.
	if got := m.TaTarget(); math.Abs(got-16) > 0.2 {
		t.Errorf("TaTarget = %v, want ≈16 (pull-down depression)", got)
	}
}

func TestDewTargetMaintainedAtEquilibrium(t *testing.T) {
	m, tank := newTestModule(t)
	m.ObserveSupplyTemp(18)
	for z := 0; z < NumBoxes; z++ {
		m.ObserveZoneTemp(z, 25)
		m.ObserveZoneRH(z, 60) // dew ≈ 16.7, below the 18 target
	}
	runModule(t, m, tank, 10*time.Second)
	if got := m.TaTarget(); math.Abs(got-18) > 0.2 {
		t.Errorf("TaTarget = %v, want ≈18 (maintenance mode)", got)
	}
}

func TestSupplyTempCapsRoomDewTarget(t *testing.T) {
	m, tank := newTestModule(t)
	// Radiant water at 15 °C: room dew must be kept below 15, not the
	// occupant's 18, to protect the panels.
	m.ObserveSupplyTemp(15)
	for z := 0; z < NumBoxes; z++ {
		m.ObserveZoneTemp(z, 25)
		m.ObserveZoneRH(z, 60) // dew 16.7 > 15 → pull-down
	}
	runModule(t, m, tank, 10*time.Second)
	if got := m.TaTarget(); math.Abs(got-13) > 0.2 {
		t.Errorf("TaTarget = %v, want ≈13 (15 − 2 pull-down)", got)
	}
}

func TestFansRunOnHumidityError(t *testing.T) {
	m, tank := newTestModule(t)
	m.ObserveSupplyTemp(18)
	for z := 0; z < NumBoxes; z++ {
		m.ObserveZoneTemp(z, 28.9)
		m.ObserveZoneRH(z, 92)
	}
	runModule(t, m, tank, time.Minute)
	for i := 0; i < NumBoxes; i++ {
		if m.Box(i).FanFlow() <= 0 {
			t.Errorf("box %d fans off despite large humidity error", i)
		}
		if !m.Box(i).FlapOpen() {
			t.Errorf("box %d flap closed while ventilating", i)
		}
	}
	if m.CoilLoadW() <= 0 {
		t.Error("no coil load while dehumidifying")
	}
	if m.CoilPumpPowerW() <= 0 {
		t.Error("no power draw while ventilating")
	}
}

func TestFansIdleWhenSatisfied(t *testing.T) {
	m, tank := newTestModule(t)
	m.ObserveSupplyTemp(18)
	for z := 0; z < NumBoxes; z++ {
		m.ObserveZoneTemp(z, 25)
		m.ObserveZoneRH(z, 55) // dew ≈ 15.3, below target
		m.ObserveZoneCO2(z, 500)
	}
	runModule(t, m, tank, time.Minute)
	for i := 0; i < NumBoxes; i++ {
		if m.Box(i).FanFlow() > 0 {
			t.Errorf("box %d ventilating with no error", i)
		}
	}
}

func TestFansRunOnCO2Error(t *testing.T) {
	m, tank := newTestModule(t)
	m.ObserveSupplyTemp(18)
	for z := 0; z < NumBoxes; z++ {
		m.ObserveZoneTemp(z, 25)
		m.ObserveZoneRH(z, 55)
		m.ObserveZoneCO2(z, 1400) // stuffy
	}
	runModule(t, m, tank, time.Minute)
	for i := 0; i < NumBoxes; i++ {
		if m.Box(i).FanFlow() <= 0 {
			t.Errorf("box %d fans off despite CO2 error", i)
		}
	}
}

func TestPerZoneIndependence(t *testing.T) {
	// Only subspace-1 is humid: its box must ventilate harder than the
	// others — the "distributed" in distributed ventilation.
	m, tank := newTestModule(t)
	m.ObserveSupplyTemp(18)
	m.ObserveZoneTemp(0, 27)
	m.ObserveZoneRH(0, 90)
	for z := 1; z < NumBoxes; z++ {
		m.ObserveZoneTemp(z, 25)
		m.ObserveZoneRH(z, 55)
	}
	runModule(t, m, tank, time.Minute)
	if m.Box(0).FanFlow() <= 0 {
		t.Fatal("humid zone box not ventilating")
	}
	for i := 1; i < NumBoxes; i++ {
		if m.Box(i).FanFlow() >= m.Box(0).FanFlow() {
			t.Errorf("satisfied box %d ventilating as hard as the humid one", i)
		}
	}
}

func TestCoilPIDTracksOutletDewTarget(t *testing.T) {
	m, tank := newTestModule(t)
	m.ObserveSupplyTemp(18)
	for z := 0; z < NumBoxes; z++ {
		m.ObserveZoneTemp(z, 28.9)
		m.ObserveZoneRH(z, 92)
	}
	// Feed back the modelled outlet dew as the SHT75 measurement.
	feedback := sim.ComponentFunc{ID: "sht75", Fn: func(*sim.Env) {
		for i := 0; i < NumBoxes; i++ {
			m.ObserveAirboxDew(i, m.Box(i).Outlet().DewPoint())
		}
	}}
	runModule(t, m, tank, 10*time.Minute, feedback)
	for i := 0; i < NumBoxes; i++ {
		got := m.Box(i).Outlet().DewPoint()
		want := m.TaTarget()
		if math.Abs(got-want) > 1.0 {
			t.Errorf("box %d outlet dew %v, want ≈ target %v", i, got, want)
		}
	}
}

func TestObserveIgnoresInvalid(t *testing.T) {
	m, _ := newTestModule(t)
	m.ObserveZoneTemp(-1, 25)
	m.ObserveZoneTemp(99, 25)
	m.ObserveZoneTemp(0, math.NaN())
	m.ObserveZoneRH(0, math.NaN())
	m.ObserveZoneCO2(-1, 400)
	m.ObserveSupplyTemp(math.NaN())
	m.ObserveAirboxDew(99, 10)
	if !math.IsNaN(m.RoomDew()) {
		t.Error("invalid observations recorded")
	}
	if m.Box(-1) != nil || m.Box(99) != nil {
		t.Error("out-of-range Box should return nil")
	}
	if f, _, _ := m.VentInputFor(-1); f != 0 {
		t.Error("out-of-range VentInputFor should be zero")
	}
}

func TestVentInputForExposesOutlet(t *testing.T) {
	m, tank := newTestModule(t)
	m.ObserveSupplyTemp(18)
	for z := 0; z < NumBoxes; z++ {
		m.ObserveZoneTemp(z, 28.9)
		m.ObserveZoneRH(z, 92)
	}
	runModule(t, m, tank, time.Minute)
	flow, supply, co2 := m.VentInputFor(0)
	if flow <= 0 {
		t.Fatal("no flow reported")
	}
	if co2 != 410 {
		t.Errorf("supply CO2 = %v, want 410", co2)
	}
	if supply.DewPoint() >= tropical.DewPoint() {
		t.Error("supply air not dried")
	}
}
