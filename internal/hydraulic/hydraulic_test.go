package hydraulic

import (
	"math"
	"testing"
	"testing/quick"

	"bubblezero/internal/exergy"
)

func newTestTank(t *testing.T, setpoint float64) *Tank {
	t.Helper()
	tank, err := NewTank(200, setpoint, exergy.DefaultChiller(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	return tank
}

func newTestPump() *Pump {
	return &Pump{MaxFlowLpm: 6, MaxPowerW: 12, StandbyW: 0.5}
}

func TestHeatFlowMatchesPaperFormula(t *testing.T) {
	// P = c·F·ΔT: 3 L/min with 4.6 K rise ≈ 964.8/2 W per panel loop scale.
	got := HeatFlow(3, 18, 22.6)
	want := 4186.0 * 3 / 60 * 4.6
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("HeatFlow = %v, want %v", got, want)
	}
	if HeatFlow(3, 20, 18) >= 0 {
		t.Error("cooling stream should report negative heat flow")
	}
}

func TestPumpVoltageClamping(t *testing.T) {
	p := newTestPump()
	p.SetVoltage(7)
	if p.voltage != 5 {
		t.Errorf("voltage = %v, want clamp 5", p.voltage)
	}
	p.SetVoltage(-2)
	if p.voltage != 0 {
		t.Errorf("voltage = %v, want clamp 0", p.voltage)
	}
}

func TestPumpFlowLinearInVoltage(t *testing.T) {
	p := newTestPump()
	p.SetVoltage(2.5)
	if got := p.FlowLpm(); math.Abs(got-3) > 1e-9 {
		t.Errorf("flow at 2.5V = %v, want 3", got)
	}
}

func TestPumpSetFlowRoundTrip(t *testing.T) {
	p := newTestPump()
	p.SetFlow(4.2)
	if got := p.FlowLpm(); math.Abs(got-4.2) > 1e-9 {
		t.Errorf("SetFlow(4.2) delivered %v", got)
	}
	p.SetFlow(100) // above max clamps to max
	if got := p.FlowLpm(); math.Abs(got-6) > 1e-9 {
		t.Errorf("over-commanded flow = %v, want 6", got)
	}
}

func TestPumpPowerCubic(t *testing.T) {
	p := newTestPump()
	p.SetVoltage(5)
	full := p.PowerW()
	p.SetVoltage(2.5)
	half := p.PowerW()
	if math.Abs(full-12.5) > 1e-9 {
		t.Errorf("full power = %v, want 12.5", full)
	}
	wantHalf := 0.5 + 12*0.125
	if math.Abs(half-wantHalf) > 1e-9 {
		t.Errorf("half-speed power = %v, want %v", half, wantHalf)
	}
}

func TestPumpValidate(t *testing.T) {
	if err := newTestPump().Validate(); err != nil {
		t.Errorf("valid pump rejected: %v", err)
	}
	if err := (&Pump{MaxFlowLpm: 0}).Validate(); err == nil {
		t.Error("zero-flow pump accepted")
	}
	if err := (&Pump{MaxFlowLpm: 5, MaxPowerW: -1}).Validate(); err == nil {
		t.Error("negative-power pump accepted")
	}
}

func TestNewTankValidation(t *testing.T) {
	if _, err := NewTank(0, 18, exergy.DefaultChiller(), 1000); err == nil {
		t.Error("zero volume accepted")
	}
	if _, err := NewTank(100, 18, exergy.DefaultChiller(), 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewTank(100, 18, exergy.Chiller{}, 1000); err == nil {
		t.Error("invalid chiller accepted")
	}
}

func TestTankHoldsSetpointUnderLoad(t *testing.T) {
	tank := newTestTank(t, 18)
	// Constant 1 kW return load for one simulated hour.
	for i := 0; i < 3600; i++ {
		tank.ReturnWater(6, 18+1000/(CwWater*LpmToKgs(6)))
		tank.Step(1, 25, 28.9)
	}
	if math.Abs(tank.Temp()-18) > 0.6 {
		t.Errorf("tank temp = %v, want ≈18 under 1 kW load", tank.Temp())
	}
	// At equilibrium the chiller moves ≈ the load.
	if th := tank.thermalW; math.Abs(th-1000) > 120 {
		t.Errorf("chiller thermal = %v, want ≈1000", th)
	}
	// Electrical power consistent with the 18 °C COP (≈4.5).
	cop := tank.thermalW / tank.ChillerElectricalW()
	if cop < 4.0 || cop > 5.1 {
		t.Errorf("implied chiller COP = %.2f, want ≈4.5", cop)
	}
}

func TestTankColdSupplyNeedsMorePower(t *testing.T) {
	warm := newTestTank(t, 18)
	cold := newTestTank(t, 8)
	var warmJ, coldJ float64
	for i := 0; i < 1800; i++ {
		warm.ReturnWater(6, warm.Temp()+2)
		cold.ReturnWater(6, cold.Temp()+2)
		warm.Step(1, 25, 28.9)
		cold.Step(1, 25, 28.9)
		warmJ += warm.ChillerElectricalW()
		coldJ += cold.ChillerElectricalW()
	}
	if coldJ <= warmJ {
		t.Errorf("8 °C tank used %v J vs 18 °C tank %v J; low-exergy advantage missing",
			coldJ, warmJ)
	}
}

func TestPanelExchangeBasics(t *testing.T) {
	p := Panel{UAWater: 85, HAAir: 170}
	res := p.Exchange(3, 18, 25)
	if res.QW <= 0 {
		t.Fatalf("panel with cold water should absorb heat, got %v", res.QW)
	}
	if res.TReturn <= 18 || res.TReturn >= 25 {
		t.Errorf("return temp = %v, want in (18, 25)", res.TReturn)
	}
	if res.TSurface <= 18 || res.TSurface >= 25 {
		t.Errorf("surface temp = %v, want between water and air", res.TSurface)
	}
	// Energy balance: q = mdot·cw·(tRet − tMix).
	q2 := HeatFlow(3, 18, res.TReturn)
	if math.Abs(q2-res.QW) > 1e-6 {
		t.Errorf("energy balance broken: %v vs %v", q2, res.QW)
	}
}

func TestPanelZeroFlow(t *testing.T) {
	p := Panel{UAWater: 85, HAAir: 170}
	res := p.Exchange(0, 18, 25)
	if res.QW != 0 {
		t.Errorf("zero-flow duty = %v, want 0", res.QW)
	}
	if res.TSurface != 25 {
		t.Errorf("idle surface = %v, want air temp 25", res.TSurface)
	}
}

func TestPanelDutyIncreasesWithFlow(t *testing.T) {
	p := Panel{UAWater: 85, HAAir: 170}
	prev := 0.0
	for f := 0.5; f <= 6; f += 0.5 {
		q := p.Exchange(f, 18, 25).QW
		if q <= prev {
			t.Fatalf("duty not increasing at flow %v", f)
		}
		prev = q
	}
}

func TestPanelDutyIncreasesWithColderWater(t *testing.T) {
	p := Panel{UAWater: 85, HAAir: 170}
	if p.Exchange(3, 16, 25).QW <= p.Exchange(3, 20, 25).QW {
		t.Error("colder water should absorb more heat")
	}
}

func TestPanelValidate(t *testing.T) {
	if err := (Panel{UAWater: 85, HAAir: 170}).Validate(); err != nil {
		t.Errorf("valid panel rejected: %v", err)
	}
	if err := (Panel{}).Validate(); err == nil {
		t.Error("zero panel accepted")
	}
}

func newTestLoop(t *testing.T) (*MixingLoop, *Tank) {
	t.Helper()
	tank := newTestTank(t, 18)
	loop, err := NewMixingLoop(tank, newTestPump(), newTestPump(), Panel{UAWater: 85, HAAir: 170})
	if err != nil {
		t.Fatal(err)
	}
	return loop, tank
}

func TestMixingLoopPureSupply(t *testing.T) {
	loop, _ := newTestLoop(t)
	loop.Supply.SetFlow(3)
	loop.Recycle.SetFlow(0)
	loop.Step(25, 1)
	if math.Abs(loop.tMix-18) > 1e-9 {
		t.Errorf("pure-supply TMix = %v, want 18", loop.tMix)
	}
	if math.Abs(loop.FMix()-3) > 1e-9 {
		t.Errorf("FMix = %v, want 3", loop.FMix())
	}
	if loop.Result().QW <= 0 {
		t.Error("no cooling duty")
	}
}

func TestMixingLoopRecycleRaisesTMix(t *testing.T) {
	loop, _ := newTestLoop(t)
	// Warm the return pipe first with a pure-supply pass.
	loop.Supply.SetFlow(3)
	loop.Step(28, 1)
	tRet := loop.tRet
	if tRet <= 18 {
		t.Fatalf("return pipe should be warm, got %v", tRet)
	}
	loop.Supply.SetFlow(1.5)
	loop.Recycle.SetFlow(1.5)
	loop.Step(28, 1)
	if loop.tMix <= 18 {
		t.Errorf("TMix with recycle = %v, want above 18", loop.tMix)
	}
	if loop.tMix >= tRet {
		t.Errorf("TMix = %v should stay below return temp %v", loop.tMix, tRet)
	}
}

func TestMixingLoopZeroFlow(t *testing.T) {
	loop, _ := newTestLoop(t)
	loop.Step(25, 1)
	if loop.Result().QW != 0 {
		t.Errorf("idle loop duty = %v, want 0", loop.Result().QW)
	}
	if loop.tMix != 18 {
		t.Errorf("idle TMix = %v, want tank temp", loop.tMix)
	}
}

func TestCommandFlowsHitsTargets(t *testing.T) {
	loop, _ := newTestLoop(t)
	// Warm the return pipe.
	loop.Supply.SetFlow(4)
	for i := 0; i < 10; i++ {
		loop.Step(28, 1)
	}
	tRet := loop.tRet
	target := (18 + tRet) / 2
	loop.CommandFlows(target, 4)
	loop.Step(28, 1)
	if math.Abs(loop.FMix()-4) > 1e-6 {
		t.Errorf("FMix = %v, want 4", loop.FMix())
	}
	// TMix uses the pre-step return temperature; allow for the update.
	if math.Abs(loop.tMix-target) > 0.5 {
		t.Errorf("TMix = %v, want ≈%v", loop.tMix, target)
	}
}

func TestCommandFlowsTargetBelowSupply(t *testing.T) {
	loop, _ := newTestLoop(t)
	loop.CommandFlows(10, 4) // target colder than the 18 °C tank
	if got := loop.Supply.FlowLpm(); math.Abs(got-4) > 1e-9 {
		t.Errorf("supply flow = %v, want all 4 (pure supply)", got)
	}
	if got := loop.Recycle.FlowLpm(); got != 0 {
		t.Errorf("recycle flow = %v, want 0", got)
	}
}

func TestCommandFlowsZeroTarget(t *testing.T) {
	loop, _ := newTestLoop(t)
	loop.Supply.SetFlow(3)
	loop.CommandFlows(18, 0)
	if loop.Supply.FlowLpm() != 0 || loop.Recycle.FlowLpm() != 0 {
		t.Error("zero target should stop both pumps")
	}
}

func TestCommandFlowsTargetAboveReturn(t *testing.T) {
	loop, _ := newTestLoop(t)
	loop.Supply.SetFlow(4)
	for i := 0; i < 5; i++ {
		loop.Step(26, 1)
	}
	loop.CommandFlows(loop.tRet+5, 4)
	if got := loop.Supply.FlowLpm(); got != 0 {
		t.Errorf("supply flow = %v, want 0 when target above return temp", got)
	}
	if got := loop.Recycle.FlowLpm(); math.Abs(got-4) > 1e-9 {
		t.Errorf("recycle flow = %v, want 4", got)
	}
}

func TestMixingLoopReturnsHeatToTank(t *testing.T) {
	loop, tank := newTestLoop(t)
	loop.Supply.SetFlow(4)
	for i := 0; i < 60; i++ {
		loop.Step(28, 1)
		tank.Step(1, 25, 28.9)
	}
	if tank.thermalW <= 0 {
		t.Error("tank chiller never saw the loop load")
	}
}

// Property: the mixed temperature always lies between the supply and
// return temperatures, and energy is conserved at the junction.
func TestMixJunctionBoundsProperty(t *testing.T) {
	f := func(fSuppRaw, fRcycRaw, tRetRaw uint8) bool {
		loop, _ := newTestLoop(t)
		fSupp := float64(fSuppRaw%60)/10 + 0.1
		fRcyc := float64(fRcycRaw%60) / 10
		loop.tRet = 18 + float64(tRetRaw%100)/10 // 18 … 28
		loop.Supply.SetFlow(fSupp)
		loop.Recycle.SetFlow(fRcyc)
		fS, fR := loop.Supply.FlowLpm(), loop.Recycle.FlowLpm()
		wantT := (fS*18 + fR*loop.tRet) / (fS + fR)
		loop.Step(30, 1)
		return math.Abs(loop.tMix-wantT) < 1e-9 &&
			loop.tMix >= 18-1e-9 && loop.tMix <= 28+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CommandFlows never commands negative or over-target flows.
func TestCommandFlowsSaneProperty(t *testing.T) {
	fn := func(tMixRaw, fMixRaw, tRetRaw uint8) bool {
		loop, _ := newTestLoop(t)
		loop.tRet = 16 + float64(tRetRaw%140)/10
		tMix := 14 + float64(tMixRaw%160)/10
		fMix := float64(fMixRaw%70) / 10
		loop.CommandFlows(tMix, fMix)
		fS, fR := loop.Supply.FlowLpm(), loop.Recycle.FlowLpm()
		if fS < 0 || fR < 0 {
			return false
		}
		// Pumps clamp at 6 L/min each; the sum cannot exceed the target by
		// more than float fuzz (it may fall short due to clamping).
		return fS+fR <= fMix+1e-9
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestMixingLoopPumpPower(t *testing.T) {
	loop, _ := newTestLoop(t)
	idle := loop.PumpPowerW()
	loop.Supply.SetFlow(6)
	loop.Recycle.SetFlow(6)
	if full := loop.PumpPowerW(); full <= idle {
		t.Errorf("full-flow pump power %v <= idle %v", full, idle)
	}
	if _, err := NewMixingLoop(nil, newTestPump(), newTestPump(),
		Panel{UAWater: 85, HAAir: 170}); err == nil {
		t.Error("nil tank accepted")
	}
	if _, err := NewMixingLoop(newTestTank(t, 18), &Pump{}, newTestPump(),
		Panel{UAWater: 85, HAAir: 170}); err == nil {
		t.Error("invalid supply pump accepted")
	}
	if _, err := NewMixingLoop(newTestTank(t, 18), newTestPump(), &Pump{},
		Panel{UAWater: 85, HAAir: 170}); err == nil {
		t.Error("invalid recycle pump accepted")
	}
	if _, err := NewMixingLoop(newTestTank(t, 18), newTestPump(), newTestPump(),
		Panel{}); err == nil {
		t.Error("invalid panel accepted")
	}
}
