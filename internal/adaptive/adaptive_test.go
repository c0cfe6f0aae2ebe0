package adaptive

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHistogramPaperWorkedExample(t *testing.T) {
	// Figure 9: varmin = 0, varmax = 10, N = 5, U = [5, 10, 3, 7, 5].
	// The paper computes the j = 3 split cost as 28; by enumeration the
	// costs are j=1:55, j=2:31, j=3:28, j=4:49, so λ = 0 + 3·2 = 6.
	h, err := NewHistogram(5)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{5, 10, 3, 7, 5}
	// Slot centers are 1,3,5,7,9 with range [0,10]; seed the range first.
	h.Add(0)
	h.Add(10)
	// Remove the two seeding counts from the desired profile.
	counts[0]--
	counts[4]--
	for i, c := range counts {
		center := 1.0 + 2.0*float64(i)
		for k := 0; k < c; k++ {
			h.Add(center)
		}
	}
	lambda, ok := h.Threshold()
	if !ok {
		t.Fatal("no threshold")
	}
	if math.Abs(lambda-6) > 1e-9 {
		t.Errorf("λ = %v, want 6 (paper's worked example)", lambda)
	}
}

func TestHistogramNeedsRange(t *testing.T) {
	h, _ := NewHistogram(10)
	if _, ok := h.Threshold(); ok {
		t.Error("empty histogram produced a threshold")
	}
	h.Add(5)
	h.Add(5)
	h.Add(5)
	if _, ok := h.Threshold(); ok {
		t.Error("degenerate (single-value) histogram produced a threshold")
	}
}

func TestHistogramRejectsInvalidValues(t *testing.T) {
	h, _ := NewHistogram(10)
	h.Add(math.NaN())
	h.Add(math.Inf(1))
	h.Add(-1)
	if h.total != 0 {
		t.Errorf("invalid values recorded: total %d", h.total)
	}
}

func TestHistogramRescalePreservesMass(t *testing.T) {
	h, _ := NewHistogram(8)
	for _, v := range []float64{1, 2, 3, 2.5, 1.5} {
		h.Add(v)
	}
	if h.total != 5 {
		t.Fatalf("total = %d", h.total)
	}
	h.Add(100) // expands varMax dramatically, triggers re-binning
	h.Add(0.1) // within half a slot of varMin: clamps into slot 1, no rescale
	if h.total != 7 {
		t.Errorf("total after rescale = %d, want 7", h.total)
	}
	var mass uint32
	for _, c := range h.counts {
		mass += c
	}
	if int(mass) != 7 {
		t.Errorf("counter mass = %d, want 7", mass)
	}
	lo, hi, ok := h.Range()
	if !ok || lo != 1 || hi != 100 {
		t.Errorf("range = [%v,%v,%v], want [1,100,true]", lo, hi, ok)
	}
	// A value far below the half-slot tolerance does rescale.
	h2, _ := NewHistogram(8)
	h2.Add(10)
	h2.Add(100)
	h2.Add(0.5) // 10 − 0.5 = 9.5 > halfSlot (5.6): rescales
	lo2, _, _ := h2.Range()
	if lo2 != 0.5 {
		t.Errorf("far-below value did not rescale: varMin = %v", lo2)
	}
}

func TestHistogramResetKeepsRange(t *testing.T) {
	h, _ := NewHistogram(8)
	h.Add(1)
	h.Add(9)
	h.Reset()
	if h.total != 0 {
		t.Errorf("total after reset = %d", h.total)
	}
	lo, hi, ok := h.Range()
	if !ok || lo != 1 || hi != 9 {
		t.Errorf("range not kept: [%v,%v,%v]", lo, hi, ok)
	}
}

func TestHistogramRAMBytesMatchesPaper(t *testing.T) {
	h, _ := NewHistogram(60)
	// Figure 12(b): "when N = 60, it takes 130 bytes ... to store the
	// entire histogram".
	if got := h.RAMBytes(); got != 130 {
		t.Errorf("RAMBytes(60) = %d, want 130", got)
	}
	h2, _ := NewHistogram(40)
	if got := h2.RAMBytes(); got != 90 {
		t.Errorf("RAMBytes(40) = %d, want 90", got)
	}
}

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(1); err == nil {
		t.Error("single-slot histogram accepted")
	}
}

func TestHistogramSeparatesBimodalClusters(t *testing.T) {
	h, _ := NewHistogram(40)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 500; i++ {
		h.Add(0.01 + rng.Float64()*0.02) // stable cluster around 0.02
	}
	for i := 0; i < 40; i++ {
		h.Add(0.8 + rng.Float64()*0.3) // transition cluster around 0.95
	}
	lambda, ok := h.Threshold()
	if !ok {
		t.Fatal("no threshold")
	}
	if lambda < 0.03 || lambda > 0.8 {
		t.Errorf("λ = %v, want between the clusters (0.03, 0.8)", lambda)
	}
}

func TestExactClustererBimodal(t *testing.T) {
	var e ExactClusterer
	for _, v := range []float64{1, 1.1, 0.9, 10, 10.2, 9.8} {
		e.Add(v)
	}
	lambda, ok := e.Threshold()
	if !ok {
		t.Fatal("no threshold")
	}
	if lambda <= 1.1 || lambda >= 9.8 {
		t.Errorf("λ = %v, want between clusters", lambda)
	}
}

func TestExactClustererDegenerate(t *testing.T) {
	var e ExactClusterer
	if _, ok := e.Threshold(); ok {
		t.Error("empty clusterer produced threshold")
	}
	e.Add(5)
	e.Add(5)
	if _, ok := e.Threshold(); ok {
		t.Error("single-value clusterer produced threshold")
	}
}

// bruteForceThreshold is the naive O(grid·n) reference for the
// Algorithm-1-objective ground truth: subrange-midpoint centers, summed
// absolute deviations, candidates on the same 4096-point grid.
func bruteForceThreshold(values []float64) (float64, bool) {
	n := len(values)
	if n < 2 {
		return 0, false
	}
	sorted := make([]float64, n)
	copy(sorted, values)
	sort.Float64s(sorted)
	vmin, vmax := sorted[0], sorted[n-1]
	if vmin == vmax {
		return 0, false
	}
	const grid = 4096
	width := (vmax - vmin) / grid
	best := math.Inf(1)
	bestB := vmin + width
	for j := 1; j < grid; j++ {
		b := vmin + float64(j)*width
		cc1 := (vmin + b) / 2
		cc2 := (b + vmax) / 2
		var cost float64
		for _, v := range sorted {
			if v < b { // matches SearchFloat64s boundary semantics
				cost += math.Abs(v - cc1)
			} else {
				cost += math.Abs(v - cc2)
			}
		}
		if cost < best {
			best = cost
			bestB = b
		}
	}
	return bestB, true
}

// splitCost evaluates the Algorithm-1 objective for a given threshold.
func splitCost(values []float64, b float64) float64 {
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	vmin, vmax := sorted[0], sorted[len(sorted)-1]
	cc1 := (vmin + b) / 2
	cc2 := (b + vmax) / 2
	var cost float64
	for _, v := range sorted {
		if v < b {
			cost += math.Abs(v - cc1)
		} else {
			cost += math.Abs(v - cc2)
		}
	}
	return cost
}

func TestExactMatchesBruteForceProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 60 {
			raw = raw[:60]
		}
		var e ExactClusterer
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r) / 7.0
			e.Add(vals[i])
		}
		got, gotOK := e.Threshold()
		want, wantOK := bruteForceThreshold(vals)
		if gotOK != wantOK {
			return false
		}
		if !gotOK {
			return true
		}
		// Prefix-sum vs direct summation can flip the argmin between
		// near-tied grid candidates; require the *costs* to agree.
		cGot := splitCost(vals, got)
		cWant := splitCost(vals, want)
		return math.Abs(cGot-cWant) <= 1e-9*(1+math.Abs(cWant))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchedulerConfigValidation(t *testing.T) {
	if err := DefaultConfig(2).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{TsplS: 0, Window: 8, N: 40, WMax: 32, StableRuns: 10, LambdaPeriodS: 1200},
		{TsplS: 2, Window: 1, N: 40, WMax: 32, StableRuns: 10, LambdaPeriodS: 1200},
		{TsplS: 2, Window: 8, N: 1, WMax: 32, StableRuns: 10, LambdaPeriodS: 1200},
		{TsplS: 2, Window: 8, N: 40, WMax: 0, StableRuns: 10, LambdaPeriodS: 1200},
		{TsplS: 2, Window: 8, N: 40, WMax: 32, StableRuns: 0, LambdaPeriodS: 1200},
		{TsplS: 2, Window: 8, N: 40, WMax: 32, StableRuns: 10, LambdaPeriodS: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestSchedulerStableStreamDoublesToWMax(t *testing.T) {
	s, err := NewScheduler(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		s.OnSample(25.0) // perfectly stable
	}
	if s.w != DefaultWMax {
		t.Errorf("w = %d, want %d after sustained stability", s.w, DefaultWMax)
	}
	if got := s.TsndS(); got != 64 {
		t.Errorf("TsndS = %v, want 64 (paper: 2 s × 32)", got)
	}
}

func TestSchedulerSendCadenceAtWMax(t *testing.T) {
	s, _ := NewScheduler(DefaultConfig(2))
	// Warm up to wMax.
	for i := 0; i < 600; i++ {
		s.OnSample(25.0)
	}
	sends := 0
	const steps = 320 // 640 s of samples at 2 s
	for i := 0; i < steps; i++ {
		if s.OnSample(25.0).Send {
			sends++
		}
	}
	if sends != 10 {
		t.Errorf("sends = %d over 640 s at T_snd = 64 s, want 10", sends)
	}
}

// eventStream produces a reading stream with stable Gaussian noise and
// occasional step events, the workload of §V-C.
func eventStream(n int, eventEvery int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	level := 25.0
	for i := range out {
		if eventEvery > 0 && i > 0 && i%eventEvery == 0 {
			level += 2.5 // door-opening style step
		}
		// Slow relaxation back toward 25.
		level += (25 - level) * 0.01
		out[i] = level + rng.NormFloat64()*0.02
	}
	return out
}

func TestSchedulerReactsToEvents(t *testing.T) {
	s, _ := NewScheduler(DefaultConfig(2))
	rng := rand.New(rand.NewPCG(9, 9))
	stream := eventStream(4000, 450, rng)
	var sawTransition bool
	var wBeforeLastEvent int
	for i, v := range stream {
		ev := s.OnSample(v)
		if i == 3599 {
			// Just before the last event: by now λ has been learned from
			// earlier events and sustained stability should have grown w.
			// (Before the *first* event the variance history is unimodal
			// and λ flaps — the paper's "initially low accuracy" regime.)
			wBeforeLastEvent = s.w
		}
		if ev.Transition {
			sawTransition = true
			if s.w != 1 {
				t.Fatalf("transition did not reset w: %d", s.w)
			}
			if !ev.Send {
				t.Fatal("transition must trigger an immediate send")
			}
		}
	}
	if !sawTransition {
		t.Error("no transition detected across events")
	}
	if wBeforeLastEvent <= 1 {
		t.Errorf("w before last event = %d, want growth during stability", wBeforeLastEvent)
	}
}

func TestSchedulerAccuracyTracking(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrackExact = true
	s, _ := NewScheduler(cfg)
	rng := rand.New(rand.NewPCG(5, 6))
	for _, v := range eventStream(3000, 400, rng) {
		s.OnSample(v)
	}
	frac, n := s.Accuracy()
	if n == 0 {
		t.Fatal("no decisions recorded")
	}
	if frac < 0.80 || frac > 1.0 {
		t.Errorf("accuracy = %v, want in [0.80, 1.0] (paper reaches ~98%%)", frac)
	}
}

// Schedulers replayed in lockstep against one shared exact clusterer must
// score exactly as independent TrackExact schedulers fed the same stream.
func TestReplayAccuracyMatchesIndependentSchedulers(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		stream := eventStream(3000, 400, rand.New(rand.NewPCG(seed, 11)))
		var cfgs []Config
		for _, n := range []int{2, 5, 40, 70} {
			cfg := DefaultConfig(float64(1 + seed))
			cfg.N = n
			cfgs = append(cfgs, cfg)
		}
		frac, decisions, err := ReplayAccuracy(stream, cfgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			cfg.TrackExact = true
			s, err := NewScheduler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range stream {
				s.OnSample(v)
			}
			wantFrac, wantDecisions := s.Accuracy()
			if wantDecisions == 0 {
				t.Fatalf("seed %d, N=%d: no decisions; the case pins nothing", seed, cfg.N)
			}
			if frac[i] != wantFrac || decisions[i] != wantDecisions {
				t.Errorf("seed %d, N=%d: shared %v over %d, independent %v over %d",
					seed, cfg.N, frac[i], decisions[i], wantFrac, wantDecisions)
			}
		}
	}

	cfgs := []Config{DefaultConfig(2), DefaultConfig(2)}
	cfgs[1].Window = DefaultWindow + 1
	if _, _, err := ReplayAccuracy(eventStream(100, 0, rand.New(rand.NewPCG(1, 1))), cfgs, nil); err == nil {
		t.Error("configs with different windows share no ground truth; want an error")
	}
}

// A replay seeded with the ground truth of an earlier pass over the same
// readings scores exactly as an unseeded one, and evaluates only the log
// lengths the seed lacks.
func TestReplayAccuracySeededMatchesUnseeded(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		tspl := float64(1 + seed)
		stream := eventStream(3000, 400, rand.New(rand.NewPCG(seed, 11)))
		var cfgs []Config
		for _, n := range []int{2, 5, 40, 70} {
			cfg := DefaultConfig(tspl)
			cfg.N = n
			cfgs = append(cfgs, cfg)
		}
		plain := &ExactClusterer{}
		wantFrac, wantDecisions, err := replayAccuracy(stream, cfgs, plain)
		if err != nil {
			t.Fatal(err)
		}
		own := plain.ExactThresholds()

		// The ground truth of an independent N = 40 scheduler, as the §V-C
		// scenario's motes record it.
		mote := DefaultConfig(tspl)
		mote.TrackExact = true
		s, err := NewScheduler(mote)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range stream {
			s.OnSample(v)
		}
		truth := s.ExactThresholds()
		if len(truth) == 0 {
			t.Fatalf("seed %d: the N = 40 scheduler recorded no thresholds; the case pins nothing", seed)
		}
		frac, decisions, err := ReplayAccuracy(stream, cfgs, truth)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if frac[i] != wantFrac[i] || decisions[i] != wantDecisions[i] {
				t.Errorf("seed %d, N=%d: seeded %v over %d, unseeded %v over %d",
					seed, cfgs[i].N, frac[i], decisions[i], wantFrac[i], wantDecisions[i])
			}
		}

		// Seeded with every length it asks for, the replay evaluates
		// nothing: the sorted mirror is built only by an evaluation.
		reseeded := &ExactClusterer{}
		reseeded.Seed(own)
		frac, decisions, err = replayAccuracy(stream, cfgs, reseeded)
		if err != nil {
			t.Fatal(err)
		}
		if len(reseeded.sorted) != 0 {
			t.Errorf("seed %d: a replay seeded with its own %d lengths evaluated a threshold", seed, len(own))
		}
		if !slices.Equal(reseeded.ExactThresholds(), own) {
			t.Errorf("seed %d: a replay seeded with its own lengths recorded other answers", seed)
		}
		for i := range cfgs {
			if frac[i] != wantFrac[i] || decisions[i] != wantDecisions[i] {
				t.Errorf("seed %d, N=%d: self-seeded %v over %d, unseeded %v over %d",
					seed, cfgs[i].N, frac[i], decisions[i], wantFrac[i], wantDecisions[i])
			}
		}
	}
}

// The TrackExact state lives behind a pointer, so a mote's scheduler (18
// per building) stays in the 192-byte size class.
func TestSchedulerSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Scheduler{}); got > 192 {
		t.Errorf("Scheduler is %d B, want <= 192", got)
	}
}

func TestSchedulerAccuracyWithoutTracking(t *testing.T) {
	s, _ := NewScheduler(DefaultConfig(2))
	s.OnSample(1)
	if frac, n := s.Accuracy(); frac != 0 || n != 0 {
		t.Errorf("accuracy without tracking = %v,%v, want 0,0", frac, n)
	}
}

func TestSchedulerFirstSampleSends(t *testing.T) {
	s, _ := NewScheduler(DefaultConfig(2))
	if !s.OnSample(25).Send {
		t.Error("first sample should transmit (device boot announcement)")
	}
}

// Property: T_snd is always T_spl times a power of two between 1 and WMax.
func TestSchedulerTsndIsPowerOfTwoProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		s, err := NewScheduler(DefaultConfig(2))
		if err != nil {
			return false
		}
		for _, r := range raw {
			s.OnSample(float64(r % 30))
			w := s.w
			if w < 1 || w > DefaultWMax || w&(w-1) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCPUSecondsMSP430MatchesPaper(t *testing.T) {
	// Figure 12(c): N = 60 takes ≈1600 ms on the MSP430.
	got := CPUSecondsMSP430(60)
	if got < 1.4 || got > 1.8 {
		t.Errorf("CPUSecondsMSP430(60) = %v s, want ≈1.6 s", got)
	}
	if CPUSecondsMSP430(1) != 0 {
		t.Error("degenerate N should cost 0")
	}
	prev := 0.0
	for n := 5; n <= 80; n += 5 {
		c := CPUSecondsMSP430(n)
		if c <= prev {
			t.Fatalf("cost not increasing at N=%d", n)
		}
		prev = c
	}
}

func TestSchedulerAccessors(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrackExact = true
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().TsplS != 2 {
		t.Errorf("Config().TsplS = %v", s.Config().TsplS)
	}
	if s.Histogram() == nil || s.Histogram().n != DefaultN {
		t.Error("Histogram accessor broken")
	}
	if s.lambdaOK {
		t.Error("fresh scheduler should have no lambda")
	}
	if frac, win := s.RecentAccuracy(); frac != 0 || win != 0 {
		t.Error("fresh RecentAccuracy should be empty")
	}
	// Feed a bimodal stream so lambda and recent accuracy materialise.
	rng := rand.New(rand.NewPCG(2, 3))
	for _, v := range eventStream(1500, 300, rng) {
		s.OnSample(v)
	}
	if !s.lambdaOK {
		t.Error("lambda not learned after events")
	}
	if frac, win := s.RecentAccuracy(); win == 0 || frac < 0.3 {
		t.Errorf("RecentAccuracy = %v over %v", frac, win)
	}
}
