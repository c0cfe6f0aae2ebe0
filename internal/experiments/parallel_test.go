package experiments

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// The parallel-runner rewiring must never change results: the scenario
// cache, the worker pool, and the fan-out are pure plumbing. These tests
// pin bit-identical outputs across cache on/off and pool widths.

const detHorizon = time.Hour

func TestScenarioCacheBitIdentical(t *testing.T) {
	ctx := context.Background()
	const seed = 7

	// Cache disabled: simulate directly and extract each figure.
	direct, err := RunNetScenario(ctx, seed, detHorizon)
	if err != nil {
		t.Fatal(err)
	}
	d13 := Fig13FromScenario(direct)
	d14 := Fig14FromScenario(direct)
	d15, err := Fig15FromScenario(ctx, direct, seed)
	if err != nil {
		t.Fatal(err)
	}

	// Cache enabled: a fresh suite memoizes one simulation shared by all
	// figures.
	suite := NewSuite(runtime.NumCPU())
	c13, err := suite.Fig13(ctx, seed, detHorizon)
	if err != nil {
		t.Fatal(err)
	}
	c14, err := suite.Fig14(ctx, seed, detHorizon)
	if err != nil {
		t.Fatal(err)
	}
	c15, err := suite.Fig15(ctx, seed, detHorizon)
	if err != nil {
		t.Fatal(err)
	}

	if d13.VarMinStableS != c13.VarMinStableS || d13.VarMaxStableS != c13.VarMaxStableS ||
		d13.FinalAccuracyPct != c13.FinalAccuracyPct {
		t.Errorf("Fig13 differs: direct %+v vs cached %+v", d13, c13)
	}
	if !reflect.DeepEqual(d13.Accuracy.Points(), c13.Accuracy.Points()) {
		t.Error("Fig13 accuracy series differs between cached and uncached runs")
	}
	if d14.StableTsndS != c14.StableTsndS || d14.Detected != c14.Detected ||
		d14.Total != c14.Total || d14.MaxDelayS != c14.MaxDelayS || d14.MeanDelayS != c14.MeanDelayS {
		t.Errorf("Fig14 differs: direct %+v vs cached %+v", d14, c14)
	}
	if d15.MeanTsndS != c15.MeanTsndS || d15.AdaptiveYears != c15.AdaptiveYears ||
		d15.FixedYears != c15.FixedYears {
		t.Errorf("Fig15 differs: direct %+v vs cached %+v", d15, c15)
	}
	if !reflect.DeepEqual(d15.CDFXs, c15.CDFXs) || !reflect.DeepEqual(d15.CDFPs, c15.CDFPs) {
		t.Error("Fig15 CDF differs between cached and uncached runs")
	}
}

func TestPoolWidthBitIdentical(t *testing.T) {
	// Width 1 vs NumCPU: identical Fig12 tables and ablation sweeps. Each
	// suite owns a fresh cache, so the scenario is re-simulated per suite —
	// any RNG-stream sharing across worker goroutines would diverge here.
	ctx := context.Background()
	const seed = 3
	ns := []int{5, 20, 40}

	serial := NewSuite(1)
	wide := NewSuite(runtime.NumCPU())

	f12s, err := serial.Fig12(ctx, seed, detHorizon, ns)
	if err != nil {
		t.Fatal(err)
	}
	f12w, err := wide.Fig12(ctx, seed, detHorizon, ns)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f12s.Points, f12w.Points) {
		t.Errorf("Fig12 differs across pool widths:\n width 1: %+v\n width N: %+v",
			f12s.Points, f12w.Points)
	}

	temps := []float64{12, 18, 21}
	sweepS, err := serial.AblationSupplyTemp(ctx, seed, temps)
	if err != nil {
		t.Fatal(err)
	}
	sweepW, err := wide.AblationSupplyTemp(ctx, seed, temps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sweepS, sweepW) {
		t.Errorf("supply sweep differs across pool widths:\n width 1: %+v\n width N: %+v",
			sweepS, sweepW)
	}

	ncS, err := serial.AblationNoCoupling(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	ncW, err := wide.AblationNoCoupling(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	if *ncS != *ncW {
		t.Errorf("no-coupling ablation differs across pool widths: %+v vs %+v", ncS, ncW)
	}
}

// Figure 11, the exergy audit and the supply sweep read one steady trial
// per (seed, supply temperature) and one AirCon trial per seed. Run
// concurrently on one suite, each must equal its result from a suite of
// its own, and the suite must hold exactly the distinct trials: the four
// sweep temperatures, 18 °C among them, and one AirCon baseline.
func TestSuiteSharesSteadyTrials(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{1, 9, 26} {
		want11, err := NewSuite(1).Fig11(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		wantAudit, err := NewSuite(1).ExergyAudit(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		wantSweep, err := NewSuite(1).AblationSupplyTemp(ctx, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, runtime.NumCPU()} {
			suite := NewSuite(width)
			var (
				f11   *Fig11Result
				audit *ExergyAuditResult
				sweep []SupplyTempPoint
			)
			err := suite.Pool().Run(ctx,
				func(ctx context.Context) (err error) { f11, err = suite.Fig11(ctx, seed); return err },
				func(ctx context.Context) (err error) { audit, err = suite.ExergyAudit(ctx, seed); return err },
				func(ctx context.Context) (err error) {
					sweep, err = suite.AblationSupplyTemp(ctx, seed, nil)
					return err
				})
			if err != nil {
				t.Fatal(err)
			}
			if *f11 != *want11 {
				t.Errorf("seed %d, width %d: shared Fig11 %+v, alone %+v", seed, width, f11, want11)
			}
			if audit.Outdoor != wantAudit.Outdoor || !slices.Equal(audit.Rows, wantAudit.Rows) {
				t.Errorf("seed %d, width %d: shared audit %+v, alone %+v", seed, width, audit, wantAudit)
			}
			if !slices.Equal(sweep, wantSweep) {
				t.Errorf("seed %d, width %d: shared sweep %+v, alone %+v", seed, width, sweep, wantSweep)
			}
			if n := suite.steady.Len(); n != 4 {
				t.Errorf("seed %d, width %d: suite holds %d steady trials, want 4", seed, width, n)
			}
			if n := suite.airCon.Len(); n != 1 {
				t.Errorf("seed %d, width %d: suite holds %d AirCon trials, want 1", seed, width, n)
			}
		}
	}
}

func TestSuiteSimulatesScenarioOnce(t *testing.T) {
	ctx := context.Background()
	suite := NewSuite(runtime.NumCPU())

	// Every consumer of the scenario, concurrently — the worst case the
	// old code quadruplicated.
	err := suite.Pool().Run(ctx,
		func(ctx context.Context) error { _, err := suite.Fig12(ctx, 11, detHorizon, []int{5, 40}); return err },
		func(ctx context.Context) error { _, err := suite.Fig13(ctx, 11, detHorizon); return err },
		func(ctx context.Context) error { _, err := suite.Fig14(ctx, 11, detHorizon); return err },
		func(ctx context.Context) error { _, err := suite.Fig15(ctx, 11, detHorizon); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	// The cache retains one scenario, and asking for it returns that one
	// instance: each simulation allocates a fresh *NetScenario, so one
	// retained instance that every request shares means one simulation.
	if n := suite.scenarios.Len(); n != 1 {
		t.Errorf("cache retains %d scenarios, want exactly 1 (singleflight + memoization)", n)
	}
	first, err := suite.NetScenario(ctx, 11, detHorizon)
	if err != nil {
		t.Fatal(err)
	}

	// A second batch with the same key is a pure cache hit.
	if _, err := suite.Fig13(ctx, 11, detHorizon); err != nil {
		t.Fatal(err)
	}
	again, err := suite.NetScenario(ctx, 11, detHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if again != first || suite.scenarios.Len() != 1 {
		t.Errorf("cache hit re-simulated: %d scenarios retained, same instance %v", suite.scenarios.Len(), again == first)
	}
}

func TestSuiteCancellationNotCached(t *testing.T) {
	suite := NewSuite(2)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := suite.Fig13(cancelled, 5, detHorizon); err == nil {
		t.Fatal("cancelled scenario request should fail")
	}
	// The failure must not poison the cache: a live context succeeds.
	if _, err := suite.Fig13(context.Background(), 5, detHorizon); err != nil {
		t.Errorf("cache poisoned by cancelled run: %v", err)
	}
}
