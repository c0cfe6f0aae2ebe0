package baseline

import (
	"context"
	"math"
	"testing"
	"time"

	"bubblezero/internal/psychro"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
)

var testStart = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)

func newRig(t *testing.T) (*Unit, *thermal.Room, *sim.Engine) {
	t.Helper()
	room, err := thermal.NewRoomAtOutdoor(thermal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	unit, err := New(DefaultConfig(), room)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(sim.MustClock(testStart, time.Second), 17)
	e.Register(unit)
	e.Register(room)
	return unit, room, e
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.MaxFlowM3s = 0 },
		func(c *Config) { c.FreshAirFraction = -0.1 },
		func(c *Config) { c.FreshAirFraction = 1.1 },
		func(c *Config) { c.FanMaxPowerW = -1 },
		func(c *Config) { c.SupplyDewC = c.SupplyAirC + 1 },
		func(c *Config) { c.Chiller.Eta = 0 },
		func(c *Config) { c.PID.OutMax = -1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate", i)
		}
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("nil room accepted")
	}
}

func TestAirConReachesSetpoint(t *testing.T) {
	unit, room, e := newRig(t)
	if err := e.RunFor(context.Background(), 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := room.AverageT(); math.Abs(got-25) > 0.5 {
		t.Errorf("room settled at %v °C, want ≈25", got)
	}
	// 8 °C supply air overdries: the room dew point must fall well below
	// the outdoor 27.4 °C (and typically below even the 18 °C target).
	if dew := room.AverageDewPoint(); dew > 19 {
		t.Errorf("room dew %v, want strong dehumidification", dew)
	}
	if unit.flow <= 0 {
		t.Error("unit idle at steady state despite envelope load")
	}
}

func TestAirConCOPNearPaperValue(t *testing.T) {
	unit, _, e := newRig(t)
	// Boot transient.
	if err := e.RunFor(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	unit.ResetCOP()
	if err := e.RunFor(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	cop := unit.COP().Value()
	// Paper (and the literature it cites): traditional systems ≈2.8.
	if cop < 2.3 || cop > 3.2 {
		t.Errorf("AirCon COP = %.2f, want ≈2.8", cop)
	}
}

func TestAirConIdleWhenRoomCold(t *testing.T) {
	cfg := thermal.DefaultConfig()
	room, err := thermal.NewRoom(cfg, psychro.State{T: 21, W: psychro.HumidityRatio(21, 40, psychro.AtmPressure), P: psychro.AtmPressure}, 450)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := New(DefaultConfig(), room)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(sim.MustClock(testStart, time.Second), 17)
	e.Register(unit)
	e.Register(room)
	if err := e.RunFor(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	if unit.flow > 0.001 {
		t.Errorf("unit blowing %v m³/s into an already-cold room", unit.flow)
	}
	if unit.elec != 0 {
		t.Errorf("idle power = %v, want 0", unit.elec)
	}
}

func TestResetCOPClears(t *testing.T) {
	unit, _, e := newRig(t)
	if err := e.RunFor(context.Background(), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if unit.COP().ConsumedJ == 0 {
		t.Fatal("no consumption recorded")
	}
	unit.ResetCOP()
	if unit.COP().ConsumedJ != 0 || unit.COP().RemovedJ != 0 {
		t.Error("ResetCOP did not clear accumulators")
	}
}
