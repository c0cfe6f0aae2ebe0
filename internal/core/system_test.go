package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"bubblezero/internal/thermal"
	"bubblezero/internal/wsn"
)

func newSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	return newSystemCfg(t, DefaultConfig(), opts...)
}

func newSystemCfg(t *testing.T, cfg Config, opts ...Option) *System {
	t.Helper()
	s, err := NewSystem(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, s *System, d time.Duration) {
	t.Helper()
	if err := s.Run(context.Background(), d); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero step", func(c *Config) { c.Step = 0 }},
		{"zero radiant tank", func(c *Config) { c.RadiantTankL = 0 }},
		{"zero vent tank", func(c *Config) { c.VentTankL = 0 }},
		{"zero radiant capacity", func(c *Config) { c.RadiantCapacityW = 0 }},
		{"zero vent capacity", func(c *Config) { c.VentCapacityW = 0 }},
		{"zero panel UA", func(c *Config) { c.PanelUAWater = 0 }},
		{"zero panel HA", func(c *Config) { c.PanelHAAir = 0 }},
		{"zero pump flow", func(c *Config) { c.PumpMaxFlowLpm = 0 }},
		{"invalid tx mode", func(c *Config) { c.TxMode = 0 }},
		{"zero zone volume", func(c *Config) { c.Thermal.ZoneVolume = 0 }},
		{"zero fmix max", func(c *Config) { c.Radiant.FMixMax = 0 }},
		{"zero horizon", func(c *Config) { c.Vent.HorizonS = 0 }},
		{"zero airtime", func(c *Config) { c.Net.AirtimeS = 0 }},
		{"zero chiller eta", func(c *Config) { c.Chiller.Eta = 0 }},
		{"negative loss floor", func(c *Config) { c.Net.LossFloor = -0.1 }},
		{"loss floor above one", func(c *Config) { c.Net.LossFloor = 1.5 }},
		{"zero temp cadence", func(c *Config) { c.TsplTemperatureS = 0 }},
		{"negative temp cadence", func(c *Config) { c.TsplTemperatureS = -3 }},
		{"zero humidity cadence", func(c *Config) { c.TsplHumidityS = 0 }},
		{"negative humidity cadence", func(c *Config) { c.TsplHumidityS = -2 }},
		{"zero co2 cadence", func(c *Config) { c.TsplCO2S = 0 }},
		{"negative co2 cadence", func(c *Config) { c.TsplCO2S = -4 }},
		{"zero stale budget", func(c *Config) { c.DegradeStaleAfter = 0 }},
		{"negative stale budget", func(c *Config) { c.DegradeStaleAfter = -time.Minute }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted the bad config")
			}
			if _, err := NewSystem(cfg); err == nil {
				t.Error("NewSystem accepted the bad config")
			}
		})
	}
}

func TestTopologyNodeCount(t *testing.T) {
	s := newSystem(t)
	// 18 battery motes (4 temp + 4 humidity + 4 CO2 + 2 panel-dew +
	// 4 airbox-dew) + 12 AC boards (C-1, C-2 ×2, V-1, V-2 ×4, V-3 ×4).
	if got := s.Network().NodeCount(); got != 30 {
		t.Errorf("node count = %d, want 30", got)
	}
	if got := len(s.Devices()); got != 18 {
		t.Errorf("battery devices = %d, want 18", got)
	}
	for _, d := range s.Devices() {
		if d.Node().Battery() == nil {
			t.Errorf("device %s has no battery", d.Node().ID())
		}
	}
	if s.Device("bt-temp-1") == nil {
		t.Error("bt-temp-1 not found")
	}
	if s.Device("nope") != nil {
		t.Error("unknown device lookup should return nil")
	}
}

// Device is an O(1) lookup over the map built in NewSystem; it must agree
// with a linear scan of Devices() for every registered device, and
// Devices() must keep its registration order (callers iterate it for
// stable per-device reporting).
func TestDeviceLookupConsistentWithDevices(t *testing.T) {
	s := newSystem(t)
	devs := s.Devices()
	for i, d := range devs {
		id := d.Node().ID()
		if got := s.Device(id); got != d {
			t.Errorf("Device(%q) = %p, want Devices()[%d] = %p", id, got, i, d)
		}
	}
	again := s.Devices()
	if len(again) != len(devs) {
		t.Fatalf("Devices() length changed: %d -> %d", len(devs), len(again))
	}
	for i := range devs {
		if devs[i] != again[i] {
			t.Errorf("Devices() order unstable at %d: %s vs %s",
				i, devs[i].Node().ID(), again[i].Node().ID())
		}
	}
}

// TestFig10PullDown reproduces the headline Figure 10 behaviour: from the
// tropical initial condition (28.9 °C, 27.4 °C dew) the system approaches
// the 25 °C / 18 °C-dew target in roughly 30 minutes and holds it.
func TestFig10PullDown(t *testing.T) {
	s := newSystem(t)
	run(t, s, 40*time.Minute)
	sn := s.Snapshot()
	if sn.AvgTempC > 25.3 {
		t.Errorf("temperature after 40 min = %.2f, want <= 25.3 (paper: 30 min)", sn.AvgTempC)
	}
	if sn.AvgDewC > 18.3 {
		t.Errorf("dew point after 40 min = %.2f, want <= 18.3 (paper: 30 min)", sn.AvgDewC)
	}
	// All four subspaces individually converge (Figure 10 plots each).
	for z := 0; z < thermal.NumZones; z++ {
		if sn.ZoneTempC[z] > 25.8 {
			t.Errorf("subspace-%d temp = %.2f, want near target", z+1, sn.ZoneTempC[z])
		}
		if sn.ZoneDewC[z] > 18.8 {
			t.Errorf("subspace-%d dew = %.2f, want near target", z+1, sn.ZoneDewC[z])
		}
	}

	// Equilibrium hold for another 30 minutes.
	run(t, s, 30*time.Minute)
	sn = s.Snapshot()
	if math.Abs(sn.AvgTempC-25) > 0.5 {
		t.Errorf("equilibrium temp = %.2f, want 25±0.5", sn.AvgTempC)
	}
	if math.Abs(sn.AvgDewC-18) > 0.6 {
		t.Errorf("equilibrium dew = %.2f, want 18±0.6", sn.AvgDewC)
	}
}

// TestNoCondensation asserts the control decomposition's core safety
// property: despite 18 °C water under a 27.4 °C-dew startup, the panel
// surfaces never drop below the local dew point for more than a fleeting
// transient.
func TestNoCondensation(t *testing.T) {
	s := newSystem(t)
	run(t, s, 90*time.Minute)
	if cs := s.CondensationSeconds(); cs > 5 {
		t.Errorf("condensation for %.0f s, want ~0 (paper: condensation is prevented)", cs)
	}
}

// TestDoorDisturbanceShort reproduces Figure 10's phase two, first event:
// a 15 s door opening perturbs subspaces 1–2 (≈0.6 °C dew blip) and the
// system recovers quickly.
func TestDoorDisturbanceShort(t *testing.T) {
	s := newSystem(t)
	run(t, s, 65*time.Minute) // settle
	base := s.Snapshot()
	eventAt := s.Now()
	s.Room().OpenDoor(15 * time.Second)
	run(t, s, 3*time.Minute)
	// The blip peaks within the first minute; read it from the trace.
	peak1 := s.Recorder().Series("dew.subsp1").StatsBetween(eventAt, eventAt.Add(3*time.Minute)).Max
	peak4 := s.Recorder().Series("dew.subsp4").StatsBetween(eventAt, eventAt.Add(3*time.Minute)).Max
	rise1 := peak1 - base.ZoneDewC[0]
	rise4 := peak4 - base.ZoneDewC[3]
	if rise1 < 0.15 {
		t.Errorf("subspace-1 dew rise = %.2f, want a visible blip (paper ≈0.6)", rise1)
	}
	if rise1 > 2.0 {
		t.Errorf("subspace-1 dew rise = %.2f, implausibly large for 15 s", rise1)
	}
	if rise1 <= rise4 {
		t.Errorf("door zone rise (%.2f) should exceed far zone rise (%.2f)", rise1, rise4)
	}
	// Recovery within ~12 minutes.
	run(t, s, 12*time.Minute)
	rec := s.Snapshot()
	if rec.AvgDewC > 18.5 {
		t.Errorf("dew after recovery = %.2f, want back near 18", rec.AvgDewC)
	}
}

// TestDoorDisturbanceLong reproduces Figure 10's phase two, second event:
// a 2-minute opening perturbs all subspaces and the system re-converges
// within roughly 15 minutes.
func TestDoorDisturbanceLong(t *testing.T) {
	s := newSystem(t)
	run(t, s, 65*time.Minute)
	s.Room().OpenDoor(2 * time.Minute)
	run(t, s, 4*time.Minute)
	peak := s.Snapshot()
	if peak.AvgDewC < 18.2 {
		t.Errorf("avg dew after 2-min door = %.2f, want visible excursion", peak.AvgDewC)
	}
	run(t, s, 15*time.Minute)
	rec := s.Snapshot()
	if math.Abs(rec.AvgTempC-25) > 0.6 {
		t.Errorf("temp 15 min after event = %.2f, want recovered (paper: 15 min)", rec.AvgTempC)
	}
	if rec.AvgDewC > 18.6 {
		t.Errorf("dew 15 min after event = %.2f, want recovered", rec.AvgDewC)
	}
}

// TestFig11COPBand verifies the energy-efficiency result: steady-state
// COPs near the paper's Bubble-C 4.52 / Bubble-V 2.82 / BubbleZERO 4.07,
// i.e. a >30 % improvement over the conventional 2.8.
func TestFig11COPBand(t *testing.T) {
	s := newSystem(t)
	run(t, s, time.Hour)
	s.ResetCOP()
	run(t, s, time.Hour)
	radiant := s.COPRadiant().Value()
	vent := s.COPVent().Value()
	total := s.COPTotal().Value()
	if radiant < 4.0 || radiant > 5.0 {
		t.Errorf("Bubble-C COP = %.2f, want ≈4.5", radiant)
	}
	if vent < 2.4 || vent > 3.3 {
		t.Errorf("Bubble-V COP = %.2f, want ≈2.8", vent)
	}
	if total < 3.6 || total > 4.6 {
		t.Errorf("BubbleZERO COP = %.2f, want ≈4.07", total)
	}
	if radiant <= vent {
		t.Error("low-exergy radiant loop must beat the 8 °C ventilation loop")
	}
	if imp := (total - 2.8) / 2.8 * 100; imp < 28 {
		t.Errorf("improvement over AirCon = %.1f%%, want >28%% (paper: up to 45.5%%)", imp)
	}
}

func TestNetworkSupportsControl(t *testing.T) {
	s := newSystem(t)
	run(t, s, 30*time.Minute)
	st := s.Network().Stats()
	if st.Sent == 0 {
		t.Fatal("no packets sent")
	}
	if rate := st.DeliveryRate(); rate < 0.95 {
		t.Errorf("delivery rate = %.3f, want > 0.95", rate)
	}
	if st.AvgDelayS() <= 0 || st.AvgDelayS() > 0.1 {
		t.Errorf("avg delay = %.4f s, want small positive", st.AvgDelayS())
	}
}

func TestAdaptiveDevicesBackOffAtEquilibrium(t *testing.T) {
	s := newSystem(t)
	run(t, s, 2*time.Hour)
	// After an hour of stability, at least half of the bt-devices should
	// have grown their transmission periods beyond the sampling period.
	backedOff := 0
	for _, d := range s.Devices() {
		if d.TsndS() > d.Scheduler().Config().TsplS {
			backedOff++
		}
	}
	if backedOff < len(s.Devices())/2 {
		t.Errorf("only %d/%d devices backed off at equilibrium", backedOff, len(s.Devices()))
	}
}

func TestAdaptiveSavesEnergyVsFixed(t *testing.T) {
	// Compare the marginal battery drain over two steady-state hours: the
	// pull-down transient legitimately keeps adaptive devices at short
	// periods, so the saving materialises once the room settles.
	used := func(mode wsn.TxMode) float64 {
		cfg := DefaultConfig()
		cfg.TxMode = mode
		s := newSystemCfg(t, cfg)
		run(t, s, time.Hour)
		var before float64
		for _, d := range s.Devices() {
			before += d.Node().Battery().UsedJ()
		}
		run(t, s, 2*time.Hour)
		var after float64
		for _, d := range s.Devices() {
			after += d.Node().Battery().UsedJ()
		}
		return after - before
	}
	fixed := used(wsn.ModeFixed)
	adaptive := used(wsn.ModeAdaptive)
	if adaptive >= fixed*0.45 {
		t.Errorf("steady-state drain: adaptive %.1f J vs fixed %.1f J, want >2x saving", adaptive, fixed)
	}
}

func TestOccupancyCO2Response(t *testing.T) {
	s := newSystem(t)
	run(t, s, 50*time.Minute)
	// Four people walk into subspace-2.
	s.Room().SetOccupants(1, 4)
	run(t, s, 40*time.Minute)
	sn := s.Snapshot()
	// CO2 must be elevated but controlled: above outdoor, at or around
	// the 800 ppm target rather than running away.
	if sn.ZoneCO2PPM[1] < 450 {
		t.Errorf("occupied zone CO2 = %.0f, want elevated", sn.ZoneCO2PPM[1])
	}
	if sn.ZoneCO2PPM[1] > 1100 {
		t.Errorf("occupied zone CO2 = %.0f, want ventilation to cap near 800", sn.ZoneCO2PPM[1])
	}
}

func TestDeterministicUnderSameSeed(t *testing.T) {
	a := newSystem(t)
	b := newSystem(t)
	run(t, a, 20*time.Minute)
	run(t, b, 20*time.Minute)
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.AvgTempC != sb.AvgTempC || sa.AvgDewC != sb.AvgDewC {
		t.Errorf("same seed diverged: %+v vs %+v", sa, sb)
	}
	if sa.NetStats != sb.NetStats {
		t.Errorf("network stats diverged: %+v vs %+v", sa.NetStats, sb.NetStats)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := newSystem(t)
	b := newSystem(t, WithSeed(99))
	run(t, a, 10*time.Minute)
	run(t, b, 10*time.Minute)
	if a.Snapshot().AvgTempC == b.Snapshot().AvgTempC &&
		a.Snapshot().NetStats == b.Snapshot().NetStats {
		t.Error("different seeds produced identical runs")
	}
}

func TestRecorderCapturesSeries(t *testing.T) {
	s := newSystem(t)
	run(t, s, 10*time.Minute)
	rec := s.Recorder()
	for _, name := range []string{"temp.subsp1", "dew.subsp4", "temp.avg", "dew.avg", "cop.total"} {
		if !rec.Has(name) {
			t.Errorf("recorder missing series %q", name)
		}
	}
	if got := rec.Series("temp.avg").Len(); got < 30 {
		t.Errorf("temp.avg has %d points over 10 min at 15 s, want ≈40", got)
	}
}

func TestScheduledDisturbances(t *testing.T) {
	s := newSystem(t)
	start := s.Now()
	s.OpenDoorAt(start.Add(5*time.Minute), 15*time.Second)
	s.OpenWindowAt(start.Add(6*time.Minute), 15*time.Second)
	s.SetOccupantsAt(start.Add(7*time.Minute), 2, 3)
	run(t, s, 8*time.Minute)
	if s.Room().DoorOpenings() != 1 {
		t.Errorf("door openings = %d, want 1", s.Room().DoorOpenings())
	}
	if s.Room().Occupants(2) != 3 {
		t.Errorf("occupants = %d, want 3", s.Room().Occupants(2))
	}
}

func TestSnapshotString(t *testing.T) {
	s := newSystem(t)
	run(t, s, time.Minute)
	if str := s.Snapshot().String(); len(str) == 0 {
		t.Error("empty snapshot string")
	}
}

func TestSnapshotComfortIndices(t *testing.T) {
	s := newSystem(t)
	run(t, s, 70*time.Minute)
	sn := s.Snapshot()
	// At the paper's setpoint with cooled ceiling panels the room should
	// score inside the ISO 7730 comfort envelope.
	if math.Abs(sn.PMV) > 0.7 {
		t.Errorf("PMV at target = %.2f, want within ±0.7", sn.PMV)
	}
	if sn.PPD <= 0 || sn.PPD > 20 {
		t.Errorf("PPD = %.1f%%, want a small positive percentage", sn.PPD)
	}
	// Before any cooling, the tropical start is uncomfortable.
	hot, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run(t, hot, time.Minute)
	if hotSn := hot.Snapshot(); hotSn.PMV <= sn.PMV {
		t.Errorf("tropical start PMV %.2f should exceed conditioned PMV %.2f",
			hotSn.PMV, sn.PMV)
	}
}

func TestAttachSniffer(t *testing.T) {
	s := newSystem(t)
	var log strings.Builder
	sniffer, err := s.AttachSniffer(&log)
	if err != nil {
		t.Fatal(err)
	}
	run(t, s, 5*time.Minute)
	if sniffer.Total() == 0 {
		t.Fatal("sniffer saw no packets")
	}
	if sniffer.TypeCount(wsn.MsgTemperature) == 0 {
		t.Error("no temperature packets observed")
	}
	if sniffer.Err() != nil {
		t.Errorf("log error: %v", sniffer.Err())
	}
	lines := strings.Count(log.String(), "\n")
	if lines != sniffer.Total()+1 {
		t.Errorf("log rows %d != packets+header %d", lines, sniffer.Total()+1)
	}
	// The observed inter-arrival of the supply-temp type equals
	// Control-C-1's 5 s broadcast period.
	mean, _, n := sniffer.InterArrival(wsn.MsgSupplyTemp)
	if n == 0 || math.Abs(mean-5) > 0.5 {
		t.Errorf("supply-temp inter-arrival = %.2f s over %d gaps, want ≈5", mean, n)
	}
}
