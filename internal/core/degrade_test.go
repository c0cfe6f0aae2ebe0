package core

import (
	"math"
	"testing"
	"time"

	"bubblezero/internal/fault"
)

// Degradation-path tests: a fault plan arms the watchdog, faults make
// inputs stale, and the system must degrade along the documented state
// machine — neighbour fallback, integrator freeze, condensation safe
// mode — then recover once the fault clears.

func TestFaultPlanArmsWatchdog(t *testing.T) {
	plain := newSystem(t)
	if d := plain.Degradation(); d.Armed {
		t.Error("fault-free system reports an armed watchdog")
	}
	plan := fault.MustPlan(fault.Jam(time.Hour, time.Minute))
	armed := newSystem(t, WithFaultPlan(plan))
	if d := armed.Degradation(); !d.Armed {
		t.Error("system with a fault plan did not arm the watchdog")
	}
	if armed.plan != plan {
		t.Error("system lost the plan it was armed with")
	}
}

func TestEmptyFaultPlanMatchesFaultFree(t *testing.T) {
	a := newSystem(t)
	b := newSystem(t, WithFaultPlan(fault.MustPlan()))
	run(t, a, 30*time.Minute)
	run(t, b, 30*time.Minute)
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.AvgTempC != sb.AvgTempC || sa.AvgDewC != sb.AvgDewC || sa.NetStats != sb.NetStats {
		t.Errorf("empty plan diverged from fault-free run:\n%+v\n%+v", sa, sb)
	}
}

func TestMoteOfflineTriggersNeighbourFallback(t *testing.T) {
	// Subspace-2's temperature mote crashes for 30 minutes: after the
	// staleness budget its control input is substituted from the freshest
	// other zone, and the substitution clears once the mote is back.
	plan := fault.MustPlan(fault.MoteOffline(40*time.Minute, 30*time.Minute, "bt-temp-2"))
	s := newSystem(t, WithFaultPlan(plan))
	run(t, s, 40*time.Minute)
	if d := s.Degradation(); d.TempSubstituted[1] {
		t.Fatal("substitution active before the fault")
	}
	run(t, s, 10*time.Minute) // 10 min into the outage > 5 min budget
	if d := s.Degradation(); !d.TempSubstituted[1] {
		t.Error("zone-2 temperature not substituted during the outage")
	} else if d.TempSubstituted[0] || d.TempSubstituted[2] || d.TempSubstituted[3] {
		t.Errorf("healthy zones substituted: %+v", d.TempSubstituted)
	}
	run(t, s, 25*time.Minute) // outage ends at 70 min; 25 min of slack
	if d := s.Degradation(); d.TempSubstituted[1] {
		t.Error("substitution still active after the mote recovered")
	}
	// One zone coasting on a neighbour must not lose the room.
	sn := s.Snapshot()
	if math.Abs(sn.AvgTempC-25) > 0.6 {
		t.Errorf("avg temp = %.2f through a single-mote outage", sn.AvgTempC)
	}
	if s.CondensationSeconds() > 10 {
		t.Errorf("condensation %.0f s through a single-mote outage", s.CondensationSeconds())
	}
}

func TestJamFreezesIntegratorsAndRecovers(t *testing.T) {
	// A 15-minute jam silences every broadcast. All zone temperatures go
	// stale (integrator freeze), both condensation sentinels go stale
	// (safe mode), all airbox dew channels go stale (model fallback) —
	// and everything un-degrades after clearance.
	plan := fault.MustPlan(fault.Jam(45*time.Minute, 15*time.Minute))
	s := newSystem(t, WithFaultPlan(plan))
	run(t, s, 55*time.Minute)
	d := s.Degradation()
	if !d.IntegratorsFrozen {
		t.Error("integrators not frozen with every temperature stale")
	}
	for p, on := range d.SafeMode {
		if !on {
			t.Errorf("panel %d not in safe mode during the jam", p)
		}
	}
	for b, on := range d.BoxDewUntrusted {
		if !on {
			t.Errorf("box %d dew still trusted during the jam", b)
		}
	}
	if !d.SupplyStale {
		t.Error("supply temperature not flagged stale during the jam")
	}
	if s.Network().Stats().Jammed == 0 {
		t.Error("no frames accounted as jammed")
	}
	run(t, s, 25*time.Minute) // jam clears at 60 min
	d = s.Degradation()
	if d.IntegratorsFrozen || d.SafeMode[0] || d.SafeMode[1] || d.SupplyStale {
		t.Errorf("degradation persists after recovery: %+v", d)
	}
	for b, on := range d.BoxDewUntrusted {
		if on {
			t.Errorf("box %d dew still untrusted after recovery", b)
		}
	}
	if s.CondensationSeconds() > 30 {
		t.Errorf("condensation %.0f s across a 15-minute jam", s.CondensationSeconds())
	}
	if temp := s.Room().AverageT(); math.Abs(temp-25) > 0.8 {
		t.Errorf("avg temp = %.2f after jam recovery", temp)
	}
}

func TestBatteryDepletionEntersSafeMode(t *testing.T) {
	// Panel 1's condensation sentinel battery dies permanently: the
	// watchdog must put that panel (and only that panel) in safe mode,
	// and the ceiling must stay dry on the raised margin.
	plan := fault.MustPlan(fault.Event{Kind: fault.KindBatteryDeplete, At: 40 * time.Minute, Node: "bt-paneldew-1"})
	s := newSystem(t, WithFaultPlan(plan))
	run(t, s, 50*time.Minute)
	d := s.Degradation()
	if !d.SafeMode[0] {
		t.Error("panel 1 not in safe mode after its sentinel died")
	}
	if d.SafeMode[1] {
		t.Error("panel 2 in safe mode with a healthy sentinel")
	}
	dev := s.deviceByID["bt-paneldew-1"]
	if !dev.Node().Battery().Depleted() {
		t.Error("sentinel battery not depleted")
	}
	run(t, s, 40*time.Minute)
	if s.CondensationSeconds() > 10 {
		t.Errorf("condensation %.0f s running on the safe-mode margin", s.CondensationSeconds())
	}
}

func TestChillerTripRaisesTankThenRecovers(t *testing.T) {
	plan := fault.MustPlan(fault.ChillerTrip(60*time.Minute, 10*time.Minute, fault.LoopRadiant))
	s := newSystem(t, WithFaultPlan(plan))
	run(t, s, 60*time.Minute)
	base := s.RadiantTank().Temp()
	run(t, s, 10*time.Minute)
	tripped := s.RadiantTank().Temp()
	if tripped < base+0.3 {
		t.Errorf("tank %.2f → %.2f across the trip, want a visible rise", base, tripped)
	}
	run(t, s, 30*time.Minute)
	if got := s.RadiantTank().Temp(); math.Abs(got-18) > 0.5 {
		t.Errorf("tank = %.2f 30 min after the trip cleared, want ≈18", got)
	}
	if s.CondensationSeconds() > 10 {
		t.Errorf("condensation %.0f s across a chiller trip", s.CondensationSeconds())
	}
}

func TestPumpDegradeStillConverges(t *testing.T) {
	// Worn impellers at 50% delivered flow from the start: pull-down is
	// slower but the room still reaches the band and stays dry.
	plan := fault.MustPlan(fault.PumpDegrade(0, 0, fault.LoopRadiant, 0.5))
	s := newSystem(t, WithFaultPlan(plan))
	run(t, s, 90*time.Minute)
	if temp := s.Room().AverageT(); temp > 26 {
		t.Errorf("avg temp = %.2f with half-flow radiant pumps", temp)
	}
	if s.CondensationSeconds() > 10 {
		t.Errorf("condensation %.0f s with degraded pumps", s.CondensationSeconds())
	}
}

func TestFaultRunDeterministicSameSeed(t *testing.T) {
	plan := fault.MustPlan(
		fault.BurstLoss(20*time.Minute, 10*time.Minute, 0.6),
		fault.SensorStuck(30*time.Minute, 20*time.Minute, "bt-temp-3"),
		fault.ChillerTrip(40*time.Minute, 10*time.Minute, fault.LoopVent),
	)
	mk := func() *System { return newSystem(t, WithFaultPlan(plan)) }
	a, b := mk(), mk()
	run(t, a, 65*time.Minute)
	run(t, b, 65*time.Minute)
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.AvgTempC != sb.AvgTempC || sa.AvgDewC != sb.AvgDewC {
		t.Errorf("same seed + same plan diverged: %+v vs %+v", sa, sb)
	}
	if sa.NetStats != sb.NetStats {
		t.Errorf("network stats diverged: %+v vs %+v", sa.NetStats, sb.NetStats)
	}
	if da, db := a.Degradation(), b.Degradation(); da != db {
		t.Errorf("degradation state diverged: %+v vs %+v", da, db)
	}
}
