package adaptive

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// referenceThreshold is the direct evaluation the incremental clusterer
// replaced: fresh sort, fresh prefix sums, and a binary search per grid
// candidate. The fast path must reproduce it bit for bit — same split
// indices, same float expressions, same tie-breaking — which this copy of
// the original implementation pins.
func referenceThreshold(values []float64) (float64, bool) {
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

	prefix := make([]float64, n+1)
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
	}
	absDev := func(lo, hi int, c float64) float64 {
		if lo >= hi {
			return 0
		}
		k := lo + sort.SearchFloat64s(sorted[lo:hi], c)
		below := c*float64(k-lo) - (prefix[k] - prefix[lo])
		above := (prefix[hi] - prefix[k]) - c*float64(hi-k)
		return below + above
	}

	width := (vmax - vmin) / exactGrid
	bestCost := math.Inf(1)
	bestB := vmin + width
	for j := 1; j < exactGrid; j++ {
		b := vmin + float64(j)*width
		split := sort.SearchFloat64s(sorted, b)
		cc1 := (vmin + b) / 2
		cc2 := (b + vmax) / 2
		cost := absDev(0, split, cc1) + absDev(split, n, cc2)
		if cost < bestCost {
			bestCost = cost
			bestB = b
		}
	}
	return bestB, true
}

func TestExactThresholdMatchesReferenceIncrementally(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	e := &ExactClusterer{}
	var log []float64

	// Interleave growth and Threshold calls the way the scheduler does:
	// bursts of Adds between evaluations, including duplicate and zero
	// variances (stable windows) and heavy-tailed spikes (transitions).
	for round := 0; round < 60; round++ {
		burst := 1 + rng.IntN(50)
		for i := 0; i < burst; i++ {
			var v float64
			switch rng.IntN(4) {
			case 0:
				v = 0 // clamped stable-window variance
			case 1:
				v = math.Trunc(rng.Float64()*8) / 16 // frequent exact duplicates
			default:
				v = rng.ExpFloat64() * math.Pow(10, float64(rng.IntN(5)-2))
			}
			e.Add(v)
			if !(math.IsNaN(v) || math.IsInf(v, 0) || v < 0) {
				log = append(log, v)
			}
		}
		got, gotOK := e.Threshold()
		want, wantOK := referenceThreshold(log)
		if gotOK != wantOK || got != want {
			t.Fatalf("round %d (n=%d): Threshold = %v,%v; reference = %v,%v",
				round, len(log), got, gotOK, want, wantOK)
		}
	}
}

func mustRef(t *testing.T, vals []float64) float64 {
	t.Helper()
	v, ok := referenceThreshold(vals)
	if !ok {
		t.Fatal("reference threshold not ok")
	}
	return v
}

func TestExactThresholdDegenerateInputs(t *testing.T) {
	e := &ExactClusterer{}
	if _, ok := e.Threshold(); ok {
		t.Error("empty clusterer should report ok=false")
	}
	e.Add(3)
	if _, ok := e.Threshold(); ok {
		t.Error("single value should report ok=false")
	}
	e.Add(3)
	e.Add(3)
	if _, ok := e.Threshold(); ok {
		t.Error("identical values should report ok=false")
	}
	e.Add(5) // now two distinct values
	if v, ok := e.Threshold(); !ok || v != mustRef(t, []float64{3, 3, 3, 5}) {
		t.Errorf("distinct-value Threshold = %v,%v", v, ok)
	}
	// Rejected inputs must not enter the log.
	e.Add(math.NaN())
	e.Add(math.Inf(1))
	e.Add(-1)
	if len(e.values) != 4 {
		t.Errorf("stored %d values after rejected adds, want 4", len(e.values))
	}
}

// Threshold performs no allocations at steady state (no new values since
// the last call: the last record answers) and none amortised on a growing
// log, where the sorted mirror, scratch and prefix buffers and the
// records grow geometrically instead of being resized to the exact count
// on every call.
func TestExactThresholdSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	e := &ExactClusterer{}
	for i := 0; i < 2000; i++ {
		e.Add(rng.ExpFloat64())
	}
	if _, ok := e.Threshold(); !ok {
		t.Fatal("threshold not ok")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, ok := e.Threshold(); !ok {
			t.Fatal("threshold not ok")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Threshold allocates %.2f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		e.Add(rng.ExpFloat64())
		if _, ok := e.Threshold(); !ok {
			t.Fatal("threshold not ok")
		}
	})
	if allocs != 0 {
		t.Errorf("Add+Threshold on a growing log allocates %.2f/op, want 0", allocs)
	}
}
