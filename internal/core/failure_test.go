package core

import (
	"math"
	"testing"
	"time"

	"bubblezero/internal/psychro"
	"bubblezero/internal/sim"
	"bubblezero/internal/wsn"
)

// Failure-injection tests: the distributed design must degrade gracefully
// when the wireless network, the sensors, or the plant misbehave — the
// conditions a real deployment meets that the paper's §IV motivates
// (limited data rate, contention, battery exhaustion).

func TestSurvivesSevereRadioLoss(t *testing.T) {
	// One packet in three lost: control updates arrive late but the
	// system must still converge, just possibly slower.
	cfg := DefaultConfig()
	cfg.Net.LossFloor = 0.33
	s := newSystemCfg(t, cfg)
	run(t, s, 70*time.Minute)
	sn := s.Snapshot()
	if sn.AvgTempC > 25.8 {
		t.Errorf("temp = %.2f under 33%% loss, want convergence", sn.AvgTempC)
	}
	if sn.AvgDewC > 18.8 {
		t.Errorf("dew = %.2f under 33%% loss, want convergence", sn.AvgDewC)
	}
	if s.CondensationSeconds() > 10 {
		t.Errorf("condensation %.0f s under loss; safety margin must hold", s.CondensationSeconds())
	}
}

func TestPanelDewSensorDeathFailsSafe(t *testing.T) {
	// Kill both under-panel condensation sentinels mid-run: their last
	// reported dew stays in effect (stale but conservative at
	// equilibrium), and the condensation guard must keep holding.
	s := newSystem(t)
	run(t, s, 40*time.Minute)
	for _, id := range []string{"bt-paneldew-1", "bt-paneldew-2"} {
		dev := s.deviceByID[wsn.NodeID(id)]
		if dev == nil {
			t.Fatalf("device %s missing", id)
		}
		dev.Node().Battery().Drain(dev.Node().Battery().RemainingJ())
	}
	run(t, s, 40*time.Minute)
	if s.CondensationSeconds() > 10 {
		t.Errorf("condensation %.0f s after sentinel death", s.CondensationSeconds())
	}
	// The room should still be held (cooling continues on stale dew).
	if got := s.Room().AverageT(); got > 25.8 {
		t.Errorf("temp drifted to %.2f after sentinel death", got)
	}
}

func TestAllBatteryDeathStopsCoolingSafely(t *testing.T) {
	// Every battery mote dies: the controllers stop receiving data. The
	// radiant module keeps its last observations (stale) — the failure
	// mode is loss of responsiveness, not condensation.
	s := newSystem(t)
	run(t, s, 40*time.Minute)
	for _, dev := range s.Devices() {
		dev.Node().Battery().Drain(dev.Node().Battery().RemainingJ())
	}
	run(t, s, 30*time.Minute)
	if s.CondensationSeconds() > 10 {
		t.Errorf("condensation %.0f s after total sensor death", s.CondensationSeconds())
	}
}

func TestUndersizedVentChillerDegradesGracefully(t *testing.T) {
	// A ventilation chiller at a fraction of design capacity: the 8 °C
	// tank runs warm during pull-down, the coil outlet dew floor rises,
	// and dehumidification slows — but nothing diverges and the radiant
	// guard still prevents condensation.
	cfg := DefaultConfig()
	cfg.VentCapacityW = 800
	s := newSystemCfg(t, cfg)
	run(t, s, 90*time.Minute)
	if s.CondensationSeconds() > 10 {
		t.Errorf("condensation %.0f s with undersized chiller", s.CondensationSeconds())
	}
	// With a third of the design capacity the 8 °C tank runs warm and the
	// dew floor rises: progress is slow but monotone (27.4 → ≈24.4 in
	// 90 min instead of 30 min to 18).
	if dew := s.Room().AverageDewPoint(); dew > 26 {
		t.Errorf("dew stuck at %.2f; even an undersized coil should make progress", dew)
	}
	if temp := s.Room().AverageT(); temp > 27.5 {
		t.Errorf("temp stuck at %.2f", temp)
	}
}

func TestHotterOutdoorStillConverges(t *testing.T) {
	// A 31 °C afternoon: ≈50 % more envelope load and a worse chiller
	// lift, still just inside the plant's ≈1.4 kW capacity envelope.
	s := newSystem(t, WithOutdoor(31, 27.5))
	run(t, s, 90*time.Minute)
	sn := s.Snapshot()
	if sn.AvgTempC > 26 {
		t.Errorf("temp = %.2f at 31 °C outdoor", sn.AvgTempC)
	}
	if sn.AvgDewC > 18.8 {
		t.Errorf("dew = %.2f at 31 °C outdoor", sn.AvgDewC)
	}
	// Efficiency drops with the bigger lift — the physics must show it.
	s2 := newSystem(t)
	run(t, s2, 90*time.Minute)
	if s.COPTotal().Value() >= s2.COPTotal().Value() {
		t.Errorf("hotter outdoor COP %.2f >= baseline %.2f; lift dependence missing",
			s.COPTotal().Value(), s2.COPTotal().Value())
	}
}

func TestDiurnalWeatherHold(t *testing.T) {
	// A compressed day: outdoor temperature swings 26→33 °C sinusoidally
	// while the dew point stays tropical. The system must hold the target
	// band throughout.
	s := newSystem(t)
	room := s.Room()
	s.Engine().Register(sim.ComponentFunc{ID: "weather", Fn: func(env *sim.Env) {
		h := env.Elapsed().Hours() * 8 // compress 24 h into 3 h
		// 28–31 °C swing: the upper bound of the plant's capacity
		// envelope (panels max out near 31 °C outdoor with UA = 220 W/K).
		tOut := 29.5 + 1.5*math.Sin(2*math.Pi*h/24)
		room.SetOutdoor(psychro.NewStateDewPoint(tOut, 26.5, 0))
	}})
	run(t, s, time.Hour) // pull-down
	worstT, worstDew := 0.0, 0.0
	for i := 0; i < 8; i++ {
		run(t, s, 15*time.Minute)
		sn := s.Snapshot()
		if d := math.Abs(sn.AvgTempC - 25); d > worstT {
			worstT = d
		}
		if d := math.Abs(sn.AvgDewC - 18); d > worstDew {
			worstDew = d
		}
	}
	if worstT > 0.8 {
		t.Errorf("worst temp deviation %.2f K across the diurnal sweep", worstT)
	}
	if worstDew > 1.0 {
		t.Errorf("worst dew deviation %.2f K across the diurnal sweep", worstDew)
	}
	if s.CondensationSeconds() > 10 {
		t.Errorf("condensation %.0f s across the diurnal sweep", s.CondensationSeconds())
	}
}

func TestSensorNoiseOffStillWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SensorNoise = false
	s := newSystemCfg(t, cfg)
	run(t, s, 45*time.Minute)
	if got := s.Room().AverageT(); got > 25.5 {
		t.Errorf("noiseless run temp = %.2f", got)
	}
}

func TestOccupantsPlusDoorCompound(t *testing.T) {
	// Compound disturbance: people in two zones plus a long door opening.
	s := newSystem(t)
	run(t, s, 60*time.Minute)
	s.Room().SetOccupants(0, 2)
	s.Room().SetOccupants(3, 2)
	s.Room().OpenDoor(90 * time.Second)
	run(t, s, 30*time.Minute)
	sn := s.Snapshot()
	if math.Abs(sn.AvgTempC-25) > 0.8 {
		t.Errorf("temp = %.2f under compound load", sn.AvgTempC)
	}
	if sn.AvgDewC > 19 {
		t.Errorf("dew = %.2f under compound load", sn.AvgDewC)
	}
	if s.CondensationSeconds() > 10 {
		t.Errorf("condensation %.0f s under compound load", s.CondensationSeconds())
	}
}
