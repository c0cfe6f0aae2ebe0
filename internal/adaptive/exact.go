package adaptive

import (
	"math"
	"slices"
)

// exactGrid is the threshold-candidate resolution of the ground-truth
// clusterer: equivalent to running Algorithm 1 with a 4096-slot histogram
// but with exact (unrounded) variance values. This is the N→∞ limit the
// paper's accuracy metric measures the histogram approximation against.
const exactGrid = 4096

// ExactClusterer stores every observed variance value and computes the
// optimal two-cluster threshold under the same objective as Algorithm 1 —
// cluster centers at the midpoints of the two subranges, cost equal to the
// summed absolute deviations of the member values — but evaluated on the
// exact values over a fine threshold grid instead of N coarse slots. It is
// the memory-unbounded ground truth for the paper's accuracy metric
// ("we can further use exact variance values to conduct clustering and
// obtain the optimal adaptation decisions").
//
// Threshold is the hottest call in the Figure 12/13 tick path, so the
// clusterer keeps a persistent sorted mirror of the value log (merged
// incrementally per call) and reusable scratch buffers that grow
// geometrically, and scans the candidate grid with monotone pointers
// instead of per-candidate binary searches: O(new·log new + n + grid) per
// call, amortised allocation-free on a growing log, with bit-identical
// results to the direct evaluation.
//
// Every answer is recorded with the log length it was computed at
// (ExactThresholds), so a call with no new value since the last one
// returns at once; that is what lets several schedulers fed the same
// stream share one clusterer (ReplayAccuracy). Because the threshold
// depends only on the logged values, the records of one pass over a
// stream also answer a later pass over the same stream: Seed hands them
// to a fresh clusterer, which evaluates only the lengths they lack.
type ExactClusterer struct {
	values []float64

	// sorted mirrors values[:len(sorted)] in ascending order; Threshold
	// merges the unsorted tail in before evaluating. tail and merged are
	// the scratch buffers for that merge; prefix holds the prefix sums.
	sorted []float64
	tail   []float64
	merged []float64
	prefix []float64

	// answers records every threshold Threshold returned for a log of two
	// or more values, in increasing log length.
	answers []ExactThreshold
	// seed holds the records of an earlier pass over the same stream, and
	// next is the forward cursor Threshold looks lengths up with: a log
	// only grows, so the lengths asked for only increase.
	seed []ExactThreshold
	next int
}

// ExactThreshold is one recorded answer of an ExactClusterer: the
// threshold (Lambda, OK) it returned for a log of N values.
type ExactThreshold struct {
	N      int
	Lambda float64
	OK     bool
}

// Add records a variance value.
func (e *ExactClusterer) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	e.values = append(e.values, v)
}

// Seed hands the clusterer the records of an earlier pass over the same
// stream of values, in increasing N (another clusterer's ExactThresholds).
// Threshold then answers a log length found there from the record
// instead of evaluating it. The records are valid only for that stream:
// seeded with another stream's, Threshold returns that stream's answers.
func (e *ExactClusterer) Seed(records []ExactThreshold) {
	e.seed, e.next = records, 0
}

// ExactThresholds returns every answer Threshold has given for a log of
// two or more values, in increasing log length. The clusterer only
// appends to the list, so the returned slice
// never changes.
func (e *ExactClusterer) ExactThresholds() []ExactThreshold {
	return slices.Clip(e.answers)
}

// growTo returns buf emptied, with capacity for at least n values. A
// reallocation at least doubles the capacity, so a log that grows by a
// few values per Threshold call reallocates O(log n) times, not per call.
func growTo(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, 0, max(n, 2*cap(buf)))
	}
	return buf[:0]
}

// syncSorted brings the persistent sorted mirror up to date with the
// value log: the values appended since the last call are sorted on their
// own and merged with the already-sorted prefix. Equal values are
// interchangeable float64 bit patterns (NaN is rejected by Add, and ±0
// behave identically in every downstream comparison and sum), so the
// result is indistinguishable from sorting the whole log afresh.
func (e *ExactClusterer) syncSorted() {
	n := len(e.values)
	s := len(e.sorted)
	if s == n {
		return
	}
	e.tail = append(growTo(e.tail, n-s), e.values[s:n]...)
	tail := e.tail
	slices.Sort(tail)
	if s == 0 {
		e.sorted = append(growTo(e.sorted, n), tail...)
		return
	}
	out := growTo(e.merged, n)
	i, j := 0, 0
	for i < s && j < len(tail) {
		if e.sorted[i] <= tail[j] {
			out = append(out, e.sorted[i])
			i++
		} else {
			out = append(out, tail[j])
			j++
		}
	}
	out = append(out, e.sorted[i:]...)
	out = append(out, tail[j:]...)
	e.sorted, e.merged = out, e.sorted
}

// Threshold returns the split λ minimising the Algorithm-1 objective over
// the candidate grid. ok is false with fewer than two distinct values.
func (e *ExactClusterer) Threshold() (lambda float64, ok bool) {
	n := len(e.values)
	if n < 2 {
		return 0, false
	}
	if k := len(e.answers); k > 0 && e.answers[k-1].N == n {
		return e.answers[k-1].Lambda, e.answers[k-1].OK
	}
	for e.next < len(e.seed) && e.seed[e.next].N < n {
		e.next++
	}
	a := ExactThreshold{N: n}
	if e.next < len(e.seed) && e.seed[e.next].N == n {
		a = e.seed[e.next]
	} else {
		a.Lambda, a.OK = e.threshold()
	}
	e.answers = append(e.answers, a)
	return a.Lambda, a.OK
}

// threshold evaluates the objective over the whole log, which holds at
// least two values; Threshold records its result.
func (e *ExactClusterer) threshold() (lambda float64, ok bool) {
	n := len(e.values)
	e.syncSorted()
	sorted := e.sorted
	vmin, vmax := sorted[0], sorted[n-1]
	//bzlint:allow floateq degenerate-range check on stored samples; no arithmetic has touched them
	if vmin == vmax {
		return 0, false
	}

	e.prefix = growTo(e.prefix, n+1)
	prefix := e.prefix[:n+1]
	prefix[0] = 0
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
	}
	// The candidate b and both cluster centers increase monotonically with
	// j, so the three partition indices a binary search used to locate are
	// maintained as forward-only pointers: split is the first value ≥ b,
	// k1 the first ≥ cc1 (clamped to the lower cluster), and k2 the first
	// ≥ cc2 (always ≥ split whenever the upper cluster is non-empty).
	width := (vmax - vmin) / exactGrid
	bestCost := math.Inf(1)
	bestB := vmin + width
	split, k1, k2 := 0, 0, 0
	for j := 1; j < exactGrid; j++ {
		b := vmin + float64(j)*width
		for split < n && sorted[split] < b {
			split++
		}
		cc1 := (vmin + b) / 2
		cc2 := (b + vmax) / 2
		for k1 < n && sorted[k1] < cc1 {
			k1++
		}
		for k2 < n && sorted[k2] < cc2 {
			k2++
		}
		kLo := k1
		if kLo > split {
			kLo = split
		}
		cost := absDev(prefix, 0, split, kLo, cc1) + absDev(prefix, split, n, k2, cc2)
		if cost < bestCost {
			bestCost = cost
			bestB = b
		}
	}
	return bestB, true
}

// absDev returns Σ|v − c| over sorted[lo:hi] given prefix, the
// prefix-sum array of sorted, where k is the index of the first value in
// [lo, hi] not below c. It is a plain function rather than a closure so
// the hot Threshold path captures nothing.
func absDev(prefix []float64, lo, hi, k int, c float64) float64 {
	if lo >= hi {
		return 0
	}
	below := c*float64(k-lo) - (prefix[k] - prefix[lo])
	above := (prefix[hi] - prefix[k]) - c*float64(hi-k)
	return below + above
}
