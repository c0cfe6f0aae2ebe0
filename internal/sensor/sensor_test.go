package sensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

func TestAllDatasheetModelsValid(t *testing.T) {
	for _, m := range []Model{ADT7410(), SHT75Temperature(), SHT75Humidity(), CO2NDIR()} {
		if m.NoiseStd < 0 || m.Quantum < 0 {
			t.Errorf("%s: NoiseStd %v and Quantum %v must be >= 0", m.Name, m.NoiseStd, m.Quantum)
		}
	}
}

func TestReadNoiselessAppliesBiasAndQuantum(t *testing.T) {
	m := Model{Name: "x", Bias: 0.5, Quantum: 0.25}
	if got := m.Read(10.1, nil); got != 10.5 {
		t.Errorf("Read = %v, want 10.5 (10.1+0.5 rounded to 0.25)", got)
	}
}

func TestReadClampsToRange(t *testing.T) {
	m := Model{Name: "x", Min: 0, Max: 100}
	if got := m.Read(-5, nil); got != 0 {
		t.Errorf("Read(-5) = %v, want clamp 0", got)
	}
	if got := m.Read(150, nil); got != 100 {
		t.Errorf("Read(150) = %v, want clamp 100", got)
	}
}

func TestReadIgnoresDegenerateRange(t *testing.T) {
	m := Model{Name: "x"} // Min == Max == 0 → no clamping
	if got := m.Read(-273, nil); got != -273 {
		t.Errorf("Read = %v, want -273 (no clamp)", got)
	}
}

func TestADT7410AccuracyBand(t *testing.T) {
	rng := testRNG()
	const truth = 18.0
	// Any calibrated instance (bias drawn from the accuracy band) must
	// keep all its readings within accuracy + a few repeatability sigmas.
	for inst := 0; inst < 50; inst++ {
		m := ADT7410().WithRandomBias(rng)
		if math.Abs(m.Bias) > 0.5 {
			t.Fatalf("instance bias %v outside ±0.5 accuracy band", m.Bias)
		}
		for i := 0; i < 100; i++ {
			if err := math.Abs(m.Read(truth, rng) - truth); err > 0.5+5*m.NoiseStd+m.Quantum {
				t.Fatalf("reading error %.3f exceeds accuracy+repeatability", err)
			}
		}
	}
}

func TestRepeatabilityMuchTighterThanAccuracy(t *testing.T) {
	// The adaptive-transmission scheme relies on per-reading jitter being
	// far smaller than event dynamics; datasheet repeatability is a
	// fraction of the accuracy band for every modelled sensor.
	for _, m := range []Model{ADT7410(), SHT75Temperature(), SHT75Humidity(), CO2NDIR()} {
		if m.NoiseStd >= m.AccuracyBand/3 {
			t.Errorf("%s: NoiseStd %v not well below AccuracyBand %v", m.Name, m.NoiseStd, m.AccuracyBand)
		}
	}
}

func TestWithRandomBiasNilRNG(t *testing.T) {
	m := ADT7410()
	if got := m.WithRandomBias(nil); got.Bias != m.Bias {
		t.Error("nil rng should not change bias")
	}
}

func TestADT7410Quantisation(t *testing.T) {
	m := ADT7410()
	got := m.Read(18.031, nil)
	if rem := math.Mod(got, 0.0625); math.Abs(rem) > 1e-9 && math.Abs(rem-0.0625) > 1e-9 {
		t.Errorf("reading %v not on 0.0625 grid", got)
	}
}

func TestSHT75HumidityClamped(t *testing.T) {
	m := SHT75Humidity()
	rng := testRNG()
	for i := 0; i < 1000; i++ {
		if v := m.Read(99.9, rng); v > 100 {
			t.Fatalf("humidity reading %v exceeds 100%%", v)
		}
		if v := m.Read(0.05, rng); v < 0 {
			t.Fatalf("humidity reading %v below 0%%", v)
		}
	}
}

func TestReadNoiseIsUnbiased(t *testing.T) {
	m := CO2NDIR()
	rng := testRNG()
	const truth = 600.0
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += m.Read(truth, rng)
	}
	mean := sum / n
	if math.Abs(mean-truth) > 1.0 {
		t.Errorf("mean reading %v drifted from truth %v", mean, truth)
	}
}

// Property: noiseless readings are monotone in the truth for any model
// without clamping (quantisation preserves weak monotonicity).
func TestReadMonotoneProperty(t *testing.T) {
	m := Model{Name: "x", Quantum: 0.0625}
	f := func(aRaw, dRaw uint16) bool {
		a := float64(aRaw)/100 - 300
		d := float64(dRaw) / 100
		return m.Read(a+d, nil) >= m.Read(a, nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
