package radiant

import (
	"context"
	"math"
	"testing"
	"time"

	"bubblezero/internal/exergy"
	"bubblezero/internal/hydraulic"
	"bubblezero/internal/sim"
)

var testStart = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)

type rig struct {
	tank   *hydraulic.Tank
	module *Module
	air    [NumPanels]float64
}

func newRig(t *testing.T) *rig {
	t.Helper()
	tank, err := hydraulic.NewTank(200, 18, exergy.DefaultChiller(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{tank: tank}
	r.air[0], r.air[1] = 28.9, 28.9
	var loops [NumPanels]*hydraulic.MixingLoop
	for i := range loops {
		loop, err := hydraulic.NewMixingLoop(tank,
			&hydraulic.Pump{MaxFlowLpm: 6, MaxPowerW: 12, StandbyW: 0.5},
			&hydraulic.Pump{MaxFlowLpm: 6, MaxPowerW: 12, StandbyW: 0.5},
			hydraulic.Panel{UAWater: 85, HAAir: 170})
		if err != nil {
			t.Fatal(err)
		}
		loops[i] = loop
	}
	m, err := New(DefaultConfig(), tank, loops, func(p int) float64 { return r.air[p] })
	if err != nil {
		t.Fatal(err)
	}
	r.module = m
	return r
}

func (r *rig) run(t *testing.T, d time.Duration, extra ...sim.Component) {
	t.Helper()
	e := sim.NewEngine(sim.MustClock(testStart, time.Second), 3)
	for _, c := range extra {
		e.Register(c)
	}
	e.Register(r.module)
	e.Register(sim.ComponentFunc{ID: "tank", Fn: func(env *sim.Env) {
		r.tank.Step(env.Dt(), 25, 28.9)
	}})
	if err := e.RunFor(context.Background(), d); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c := DefaultConfig()
	c.FMixMax = 0
	if err := c.Validate(); err == nil {
		t.Error("zero FMixMax accepted")
	}
	c = DefaultConfig()
	c.DewMargin = -1
	if err := c.Validate(); err == nil {
		t.Error("negative DewMargin accepted")
	}
}

func TestNewValidation(t *testing.T) {
	r := newRig(t)
	var loops [NumPanels]*hydraulic.MixingLoop
	loops[0] = r.module.loops[0]
	loops[1] = r.module.loops[1]
	if _, err := New(DefaultConfig(), nil, loops, func(int) float64 { return 25 }); err == nil {
		t.Error("nil tank accepted")
	}
	if _, err := New(DefaultConfig(), r.tank, loops, nil); err == nil {
		t.Error("nil panelAir accepted")
	}
	var badLoops [NumPanels]*hydraulic.MixingLoop
	if _, err := New(DefaultConfig(), r.tank, badLoops, func(int) float64 { return 25 }); err == nil {
		t.Error("nil loop accepted")
	}
}

func TestNoCoolingBeforeObservations(t *testing.T) {
	r := newRig(t)
	r.run(t, time.Minute)
	for p := 0; p < NumPanels; p++ {
		if q := r.module.Loop(p).Result().QW; q != 0 {
			t.Errorf("panel %d cooling %v W before any observation", p, q)
		}
	}
}

func TestDewBelowSupplyUsesPureSupplyTarget(t *testing.T) {
	r := newRig(t)
	r.module.ObservePanelDew(0, 14) // dry room: 14 °C dew, well below 18 °C water
	r.module.ObservePanelDew(1, 14)
	for z := 0; z < 4; z++ {
		r.module.ObserveZoneTemp(z, 28.9) // hot room
	}
	r.run(t, 5*time.Minute)
	for p := 0; p < NumPanels; p++ {
		if got := r.module.tMixTarget[p]; math.Abs(got-18) > 0.01 {
			t.Errorf("panel %d TMixTarget = %v, want T_supp 18", p, got)
		}
		if got := r.module.fMixTarget[p]; got <= 1 {
			t.Errorf("panel %d FMixTarget = %v, want substantial flow for 3.9 K error", p, got)
		}
		if q := r.module.Loop(p).Result().QW; q <= 100 {
			t.Errorf("panel %d duty = %v W, want substantial cooling", p, q)
		}
	}
}

func TestHumidAirRaisesMixTargetAboveSupply(t *testing.T) {
	r := newRig(t)
	r.module.ObservePanelDew(0, 27.4) // tropical startup: dew above water temp
	r.module.ObservePanelDew(1, 27.4)
	for z := 0; z < 4; z++ {
		r.module.ObserveZoneTemp(z, 28.9)
	}
	r.run(t, 5*time.Minute)
	for p := 0; p < NumPanels; p++ {
		want := 27.4 + DefaultConfig().DewMargin
		if got := r.module.tMixTarget[p]; math.Abs(got-want) > 0.01 {
			t.Errorf("panel %d TMixTarget = %v, want T_cdew+margin %v", p, got, want)
		}
		// Condensation safety: the panel surface must stay at or above the
		// dew point (within sensor-noise tolerance).
		if surf := r.module.Loop(p).Result().TSurface; surf < 27.3 {
			t.Errorf("panel %d surface %v below dew threshold 27.4", p, surf)
		}
	}
}

func TestFlowBacksOffAtSetpoint(t *testing.T) {
	r := newRig(t)
	r.module.ObservePanelDew(0, 14)
	r.module.ObservePanelDew(1, 14)
	for z := 0; z < 4; z++ {
		r.module.ObserveZoneTemp(z, 25.0) // already at setpoint
	}
	r.run(t, 10*time.Minute)
	for p := 0; p < NumPanels; p++ {
		if got := r.module.fMixTarget[p]; got > 1.0 {
			t.Errorf("panel %d flow = %v at setpoint, want near zero", p, got)
		}
	}
}

func TestClosedLoopCoolsVirtualRoom(t *testing.T) {
	// Couple the module to a toy one-node room: the PID must pull the
	// room from 28.9 °C to the 25 °C target without oscillating wildly.
	r := newRig(t)
	roomT := 28.9
	const heatCapJperK = 580000.0 // matches the lab's effective capacity
	coupler := sim.ComponentFunc{ID: "virtual-room", Fn: func(env *sim.Env) {
		r.module.ObservePanelDew(0, 14)
		r.module.ObservePanelDew(1, 14)
		for z := 0; z < 4; z++ {
			r.module.ObserveZoneTemp(z, roomT)
		}
		r.air[0], r.air[1] = roomT, roomT
		var q float64
		for p := 0; p < NumPanels; p++ {
			q += r.module.Loop(p).Result().QW
		}
		gain := 220 * (28.9 - roomT) // envelope
		roomT += (gain - q) / heatCapJperK * env.Dt()
	}}
	r.run(t, 90*time.Minute, coupler)
	if math.Abs(roomT-25) > 0.4 {
		t.Errorf("virtual room settled at %v °C, want ≈25", roomT)
	}
}

func TestObserveIgnoresInvalid(t *testing.T) {
	r := newRig(t)
	r.module.ObservePanelDew(-1, 20)
	r.module.ObservePanelDew(99, 20)
	r.module.ObservePanelDew(0, math.NaN())
	r.module.ObserveZoneTemp(-1, 25)
	r.module.ObserveZoneTemp(99, 25)
	r.module.ObserveZoneTemp(0, math.NaN())
	if !math.IsNaN(r.module.RoomTemp()) {
		t.Error("invalid observations were recorded")
	}
	if r.module.Loop(-1) != nil || r.module.Loop(99) != nil {
		t.Error("out-of-range Loop should return nil")
	}
}

func TestRoomTempAveragesPartialObservations(t *testing.T) {
	r := newRig(t)
	r.module.ObserveZoneTemp(0, 26)
	r.module.ObserveZoneTemp(2, 28)
	if got := r.module.RoomTemp(); math.Abs(got-27) > 1e-9 {
		t.Errorf("RoomTemp = %v, want 27 (mean of reported zones)", got)
	}
}

func TestPanelZoneMapping(t *testing.T) {
	if PanelZones(0) != [2]int{0, 1} || PanelZones(1) != [2]int{2, 3} {
		t.Error("PanelZones mapping wrong")
	}
}

func TestPumpPowerReported(t *testing.T) {
	r := newRig(t)
	r.module.ObservePanelDew(0, 14)
	r.module.ObservePanelDew(1, 14)
	for z := 0; z < 4; z++ {
		r.module.ObserveZoneTemp(z, 28.9)
	}
	r.run(t, time.Minute)
	if got := r.module.PumpPowerW(); got <= 0 {
		t.Errorf("PumpPowerW = %v, want > 0 while pumping", got)
	}
}
