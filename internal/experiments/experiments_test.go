package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"
)

// The experiment horizons here are shortened from the paper's five hours
// to keep the suite fast; the assertions target shape, not exact values.

// testSuite is shared by every test in the package, so the figures that
// replay the 2 h §V-C scenario simulate it once between them.
var testSuite = NewSuite(0)

func TestFig10ReproducesHeadline(t *testing.T) {
	r, err := Fig10(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.TempConverge <= 0 || r.TempConverge > 45*time.Minute {
		t.Errorf("temp convergence %v, want ≈30 min", r.TempConverge)
	}
	if r.DewConverge <= 0 || r.DewConverge > 45*time.Minute {
		t.Errorf("dew convergence %v, want ≈30 min", r.DewConverge)
	}
	if r.Event1DewBlipC < 0.15 || r.Event1DewBlipC > 2 {
		t.Errorf("door blip %.2f °C, want O(0.6)", r.Event1DewBlipC)
	}
	if r.Event2RecoveryMin < 0 || r.Event2RecoveryMin > 20 {
		t.Errorf("2-min door recovery %.0f min, want <= 20", r.Event2RecoveryMin)
	}
	if r.CondensationS > 5 {
		t.Errorf("condensation %.0f s, want ≈0", r.CondensationS)
	}
	if s := r.Summary(); !strings.Contains(s, "Fig10") {
		t.Errorf("summary malformed: %s", s)
	}
}

// A crossing the trial never reaches is −1 min, not the zero "instant",
// and fails the paper bounds by name. Seeds 10 and 12 settle with the room
// dew point above the 18.3 °C band.
func TestFig10NeverConvergedIsMinusOne(t *testing.T) {
	for _, seed := range []uint64{10, 12} {
		r, err := Fig10(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.DewConverge != -time.Minute {
			t.Errorf("seed %d: dew convergence %v, want -1m0s (never)", seed, r.DewConverge)
		}
		m := r.Metrics()
		if m.DewConvergeMin != -1 {
			t.Errorf("seed %d: dew_converge_min = %v, want -1", seed, m.DewConvergeMin)
		}
		if err := CheckFig10Bounds(m); err == nil || !strings.Contains(err.Error(), "dew_converge_min") {
			t.Errorf("seed %d: bounds check = %v, want a dew_converge_min violation", seed, err)
		}
	}
}

func TestFig10WriteTable(t *testing.T) {
	r, err := Fig10(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// 105 minutes at 30 s + header = 211 + 1.
	if len(lines) < 200 {
		t.Errorf("table has %d rows, want ≈212", len(lines))
	}
	if !strings.Contains(lines[0], "temp.subsp1") || !strings.Contains(lines[0], "dew.subsp4") {
		t.Errorf("header missing series: %s", lines[0])
	}
	// The bytes the row-by-row CSV writer produced, before it worked in
	// blocks of rows through reused buffers. Like the golden epoch, the
	// digest moves only with the simulation.
	const want = "0ed54481901743376a47239de1bd3eec25aaa76ae28fd70aeb5f44b720d86ea3"
	if sum := sha256.Sum256([]byte(sb.String())); hex.EncodeToString(sum[:]) != want {
		t.Errorf("Fig10 CSV SHA-256 %x, want the row-by-row writer's %s", sum, want)
	}
}

func TestFig11Ordering(t *testing.T) {
	r, err := Fig11(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.BubbleC > r.BubbleZERO && r.BubbleZERO > r.AirCon && r.BubbleC > r.BubbleV) {
		t.Errorf("COP ordering broken: %+v", r)
	}
	if r.ImprovementPct < 25 {
		t.Errorf("improvement %.1f%%, want >25%% (paper 45.5%%)", r.ImprovementPct)
	}
	// Raw power magnitudes in the paper's ballpark.
	if r.RadiantRemovedW < 500 || r.RadiantRemovedW > 1500 {
		t.Errorf("radiant removed %.0f W, want O(965)", r.RadiantRemovedW)
	}
	if r.VentRemovedW < 50 || r.VentRemovedW > 600 {
		t.Errorf("vent removed %.0f W, want O(213)", r.VentRemovedW)
	}
}

func TestNetScenarioStructure(t *testing.T) {
	sc, err := RunNetScenario(context.Background(), 1, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.EventTimes) == 0 {
		t.Fatal("no door/window events scheduled")
	}
	if len(sc.Readings) != 18 {
		t.Errorf("readings for %d devices, want 18", len(sc.Readings))
	}
	for id, rs := range sc.Readings {
		if len(rs) < 100 {
			t.Errorf("device %s recorded only %d samples", id, len(rs))
		}
	}
	if sc.MeanTsndS() <= 2 {
		t.Errorf("mean Tsnd %.1f s, want backoff above the sampling period", sc.MeanTsndS())
	}
	if sc.NetStats.DeliveryRate() < 0.95 {
		t.Errorf("delivery %.3f, want > 0.95", sc.NetStats.DeliveryRate())
	}
	if sc.SteadyElapsed <= 0 {
		t.Error("steady window not recorded")
	}
	for id, d := range sc.SteadyDrainJ {
		if d <= 0 {
			t.Errorf("device %s steady drain %.3f J, want > 0", id, d)
		}
	}
	if Fig14FromScenario(sc).Detected == 0 {
		t.Error("no events detected by the observing motes")
	}
}

// A zero or negative horizon is rejected up front: a negative one would
// otherwise reach sim.Engine.RunFor through the d/2 boot phase.
func TestRunNetScenarioRejectsNonPositiveHorizon(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Hour} {
		if _, err := RunNetScenario(context.Background(), 1, d); err == nil {
			t.Errorf("RunNetScenario(%v) returned nil, want an error", d)
		}
	}
}

func TestFig12ShapeRisingAndSaturating(t *testing.T) {
	r, err := testSuite.Fig12(context.Background(), 1, 2*time.Hour, []int{5, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	small, big := r.Points[0], r.Points[1]
	if small.AccuracyPct >= big.AccuracyPct {
		t.Errorf("accuracy not rising with N: N=5 %.1f%% vs N=40 %.1f%%",
			small.AccuracyPct, big.AccuracyPct)
	}
	if big.AccuracyPct < 88 {
		t.Errorf("N=40 accuracy %.1f%%, want high (paper ≈98%%)", big.AccuracyPct)
	}
	if small.RAMBytes >= big.RAMBytes || small.CPUSeconds >= big.CPUSeconds {
		t.Error("RAM/CPU not increasing with N")
	}
	if s := r.Summary(); !strings.Contains(s, "Fig12") {
		t.Errorf("summary malformed: %s", s)
	}
}

func TestFig13AccuracyStabilisesHigh(t *testing.T) {
	r, err := testSuite.Fig13(context.Background(), 1, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if r.FinalAccuracyPct < 90 {
		t.Errorf("final accuracy %.1f%%, want 97–99%% band", r.FinalAccuracyPct)
	}
	if st := r.Accuracy.Stats(); st.Min >= st.Max {
		t.Error("accuracy series is flat; expected an early dip")
	}
	if r.VarMinStableS <= 0 {
		t.Error("var_min stability instant missing")
	}
	if r.VarMaxStableS < r.VarMinStableS {
		t.Errorf("var_max (%.0f s) should stabilise after var_min (%.0f s)",
			r.VarMaxStableS, r.VarMinStableS)
	}
}

func TestFig14DetectionWithinSeconds(t *testing.T) {
	r, err := testSuite.Fig14(context.Background(), 1, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if r.StableTsndS != 64 {
		t.Errorf("stable Tsnd %.0f s, want 64 (2 s × w_max 32)", r.StableTsndS)
	}
	if r.Total == 0 || r.Detected == 0 {
		t.Fatalf("no door events detected (%d/%d)", r.Detected, r.Total)
	}
	if r.MeanDelayS <= 0 || r.MeanDelayS > 10 {
		t.Errorf("mean detection delay %.1f s, want a few seconds (paper 2.7)", r.MeanDelayS)
	}
}

func TestFig15LifetimesAndCDF(t *testing.T) {
	r, err := testSuite.Fig15(context.Background(), 1, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if r.AdaptiveYears <= r.FixedYears {
		t.Errorf("adaptive lifetime %.2f y not above fixed %.2f y", r.AdaptiveYears, r.FixedYears)
	}
	if r.AdaptiveYears < 1.5 {
		t.Errorf("adaptive lifetime %.2f y, want multi-year (paper 3.2)", r.AdaptiveYears)
	}
	if r.FixedYears > 1.3 {
		t.Errorf("fixed lifetime %.2f y, want below ≈1 (paper 0.7)", r.FixedYears)
	}
	if len(r.CDFXs) < 3 {
		t.Errorf("CDF has %d points, want a spread of periods", len(r.CDFXs))
	}
	if last := r.CDFPs[len(r.CDFPs)-1]; last != 1 {
		t.Errorf("CDF does not end at 1: %v", last)
	}
}

func TestAblationSupplyTempCrossover(t *testing.T) {
	pts, err := testSuite.AblationSupplyTemp(context.Background(), 1, []float64{12, 18})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].ChillerCOP >= pts[1].ChillerCOP {
		t.Error("chiller COP should rise with supply temperature")
	}
	if pts[0].SystemCOP >= pts[1].SystemCOP {
		t.Errorf("18 °C system COP (%.2f) should beat 12 °C (%.2f)",
			pts[1].SystemCOP, pts[0].SystemCOP)
	}
	if !pts[1].ReachedTarget {
		t.Error("18 °C design should still hold the room at target")
	}
	if s := SummarizeSupplyTemp(pts); !strings.Contains(s, "Tsupp") {
		t.Errorf("summary malformed: %s", s)
	}
}

func TestAblationNoCouplingShowsCondensation(t *testing.T) {
	r, err := testSuite.AblationNoCoupling(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.GuardedCondensationS > 5 {
		t.Errorf("guarded run condensed %.0f s", r.GuardedCondensationS)
	}
	if r.UnguardedCondensationS < 60 {
		t.Errorf("unguarded run condensed only %.0f s; the ablation should wet the panels",
			r.UnguardedCondensationS)
	}
}

func TestAblationDesyncReducesCollisions(t *testing.T) {
	r, err := testSuite.AblationDesync(context.Background(), 1, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r.WithoutDesync.Collided == 0 {
		t.Fatal("no collisions under random offsets; contention model inert")
	}
	if r.WithDesync.Collided >= r.WithoutDesync.Collided {
		t.Errorf("desync collisions %d >= random %d",
			r.WithDesync.Collided, r.WithoutDesync.Collided)
	}
}

func TestAblationHistogramReset(t *testing.T) {
	r, err := testSuite.AblationHistogramReset(context.Background(), 1, 2*time.Hour, 40*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// The paper resets weekly; at this compressed scale (40-minute resets
	// against 30-minute events) the re-learning transient visibly costs
	// accuracy, which is exactly what the ablation demonstrates: the
	// reset period must be long relative to the event interval.
	if r.WithoutResetPct < 85 {
		t.Errorf("no-reset accuracy %.1f%%, want high", r.WithoutResetPct)
	}
	if r.WithResetPct < 55 {
		t.Errorf("with-reset accuracy %.1f%% collapsed entirely", r.WithResetPct)
	}
	if r.WithResetPct > r.WithoutResetPct+5 {
		t.Errorf("frequent resets should not beat no-reset: %.1f%% vs %.1f%%",
			r.WithResetPct, r.WithoutResetPct)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig10(ctx, 1); err == nil {
		t.Error("cancelled Fig10 should fail")
	}
	if _, err := RunNetScenario(ctx, 1, time.Hour); err == nil {
		t.Error("cancelled scenario should fail")
	}
}

func TestExergyAuditDecomposition(t *testing.T) {
	r, err := ExergyAudit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	byName := map[string]ExergyRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		if row.RemovedW <= 0 || row.ActualW <= 0 {
			t.Errorf("%s: empty measurement %+v", row.Name, row)
		}
		if row.MinWorkW >= row.ActualW {
			t.Errorf("%s: minimum work %.1f >= actual %.1f violates the second law",
				row.Name, row.MinWorkW, row.ActualW)
		}
		eff := row.SecondLawEff()
		if eff <= 0.1 || eff >= 1 {
			t.Errorf("%s: second-law efficiency %.2f implausible", row.Name, eff)
		}
	}
	// The decomposition's core claim: per joule moved, the 18 °C loop
	// needs far less minimum work than the 8 °C systems.
	radiant := byName["Bubble-C (18 °C water)"]
	aircon := byName["AirCon (8 °C air)"]
	radiantPerJoule := radiant.MinWorkW / radiant.RemovedW
	airconPerJoule := aircon.MinWorkW / aircon.RemovedW
	if radiantPerJoule >= airconPerJoule*0.7 {
		t.Errorf("18 °C exergy/J (%.4f) should be well below 8 °C (%.4f)",
			radiantPerJoule, airconPerJoule)
	}
	if s := r.Summary(); !strings.Contains(s, "Exergy audit") {
		t.Errorf("summary malformed: %s", s)
	}
}

func TestFig11StableAcrossSeeds(t *testing.T) {
	// The headline efficiency result must not be a single-seed artefact:
	// three independent trials land in the same band and ordering.
	for seed := uint64(1); seed <= 3; seed++ {
		r, err := Fig11(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.BubbleZERO < 3.5 || r.BubbleZERO > 4.6 {
			t.Errorf("seed %d: BubbleZERO COP %.2f outside band", seed, r.BubbleZERO)
		}
		if !(r.BubbleC > r.BubbleZERO && r.BubbleZERO > r.AirCon) {
			t.Errorf("seed %d: ordering broken %+v", seed, r)
		}
	}
}

func TestFig10StableAcrossSeeds(t *testing.T) {
	for seed := uint64(2); seed <= 3; seed++ {
		r, err := Fig10(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.TempConverge <= 0 || r.TempConverge > 45*time.Minute {
			t.Errorf("seed %d: temp convergence %v", seed, r.TempConverge)
		}
		if r.CondensationS > 5 {
			t.Errorf("seed %d: condensation %.0f s", seed, r.CondensationS)
		}
	}
}
