// Package adaptive implements the paper's adaptive sensory-data
// transmission scheme for battery-powered devices (§IV-B): sensory
// readings are sampled every T_spl; the variance over a sliding window
// classifies the environment as stable or in transition against a
// threshold λ; λ is learned online by clustering historical variances with
// a constant-memory histogram (Algorithm 1); and the transmission period
// T_snd = w·T_spl doubles after sustained stability (w ≤ 32) and snaps
// back to T_spl the moment a transition is detected.
package adaptive

import (
	"fmt"
	"math"
)

// Histogram approximates the set of observed variance values with N
// equal-width slots between the minimum and maximum seen so far, storing
// only a counter per slot — the paper's constant-memory design ("devices
// round each variance value to the closest slot center and maintain a
// counter U_i").
type Histogram struct {
	n      int
	varMin float64
	varMax float64
	// width caches (varMax − varMin)/n, refreshed whenever the range
	// changes. slotWidth is on the per-sample path and in Threshold's
	// O(N²) inner loop via center; the cached value is the same float the
	// divide would produce because it is computed from the same operands.
	width  float64
	counts []uint32
	// scratch is the retired counts backing, reused by rescale so that
	// range expansions — which every device performs as it learns its
	// environment — stop allocating once the histogram exists. The swap
	// moves integer counters only, so it cannot perturb any float result.
	scratch  []uint32
	total    int
	hasRange bool
}

// NewHistogram returns a histogram with n slots. n must be at least 2.
func NewHistogram(n int) (*Histogram, error) {
	if n < 2 {
		return nil, fmt.Errorf("adaptive: histogram needs >= 2 slots, got %d", n)
	}
	return &Histogram{n: n, counts: make([]uint32, n), scratch: make([]uint32, n)}, nil
}

// Range returns the observed [varMin, varMax] and whether any range
// exists yet (requires at least two distinct values).
func (h *Histogram) Range() (varMin, varMax float64, ok bool) {
	return h.varMin, h.varMax, h.hasRange
}

// slotWidth returns Δvar = (varMax − varMin)/N.
func (h *Histogram) slotWidth() float64 { return h.width }

// setRange updates the range and the cached slot width.
func (h *Histogram) setRange(lo, hi float64) {
	h.varMin, h.varMax = lo, hi
	h.width = (hi - lo) / float64(h.n)
}

// center returns the center c_i of 1-based slot i:
// c_i = varMin + (i − 0.5)·Δvar.
func (h *Histogram) center(i int) float64 {
	return h.varMin + (float64(i)-0.5)*h.slotWidth()
}

// slotFor maps a value to a 0-based slot index within the current range.
func (h *Histogram) slotFor(v float64) int {
	w := h.slotWidth()
	if w <= 0 {
		return 0
	}
	i := int((v - h.varMin) / w)
	if i < 0 {
		i = 0
	}
	if i >= h.n {
		i = h.n - 1
	}
	return i
}

// Add records a variance value, expanding and re-binning the histogram if
// the value falls outside the current [varMin, varMax] range ("if either
// varmax or varmin is changed, histogram values will be rounded to N new
// slot centers").
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	// Values within half a slot of the boundary round into the edge slot
	// anyway, so they do not trigger a rescale. This is what lets
	// var_min/var_max stabilise on a real device instead of being moved
	// by every record-breaking float (the paper observes var_min settling
	// after ≈140 s and var_max after ≈1.5 h).
	halfSlot := h.slotWidth() / 2
	switch {
	case h.total == 0:
		h.setRange(v, v)
	case !h.hasRange:
		// Second distinct value establishes the range.
		if v < h.varMin {
			h.rescale(v, h.varMax)
		} else if v > h.varMax {
			h.rescale(h.varMin, v)
		}
	case v < h.varMin-halfSlot:
		h.rescale(v, h.varMax)
	case v > h.varMax+halfSlot:
		h.rescale(h.varMin, v)
	}
	if h.varMax > h.varMin {
		h.hasRange = true
	}
	h.counts[h.slotFor(v)]++
	h.total++
}

// rescale re-bins existing counts onto a new [lo, hi] grid by rounding
// each old slot center to the nearest new slot — the approximation-error
// source evaluated in Figure 13.
func (h *Histogram) rescale(lo, hi float64) {
	old := h.counts
	oldMin, oldMax := h.varMin, h.varMax
	oldWidth := (oldMax - oldMin) / float64(h.n)
	h.setRange(lo, hi)
	next := h.scratch
	for i := range next {
		next[i] = 0
	}
	h.counts, h.scratch = next, old
	if !h.hasRange || oldWidth <= 0 {
		// All prior mass sits at a single value (oldMin == oldMax).
		var mass uint32
		for _, c := range old {
			mass += c
		}
		if mass > 0 {
			h.counts[h.slotFor(oldMin)] += mass
		}
		return
	}
	for i, c := range old {
		if c == 0 {
			continue
		}
		oldCenter := oldMin + (float64(i)+0.5)*oldWidth
		h.counts[h.slotFor(oldCenter)] += c
	}
}

// Reset zeroes the counters while keeping the learned range; the paper
// resets each U_i periodically (e.g. weekly) "to eliminate approximation
// errors cumulated in the past week".
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}

// Threshold runs Algorithm 1: it enumerates the N−1 candidate split
// positions j, computes the two cluster centers as the unweighted means of
// their slot centers, sums the count-weighted intra-cluster distances, and
// returns λ = varMin + j*·Δvar for the split minimising the total. ok is
// false until the histogram has a usable range.
func (h *Histogram) Threshold() (lambda float64, ok bool) {
	if !h.hasRange || h.total < 2 {
		return 0, false
	}
	width := h.slotWidth()
	bestSum := math.Inf(1)
	bestJ := 0
	for j := 1; j < h.n; j++ {
		// Cluster centers: unweighted means of slot centers, exactly as
		// the paper defines cc1 and cc2.
		cc1 := h.varMin + (float64(j)/2)*width     // mean of centers 1..j
		cc2 := h.varMin + (float64(j+h.n)/2)*width // mean of centers j+1..N
		var sum float64
		for k := 1; k <= j; k++ {
			sum += float64(h.counts[k-1]) * math.Abs(h.center(k)-cc1)
		}
		for k := j + 1; k <= h.n; k++ {
			sum += float64(h.counts[k-1]) * math.Abs(h.center(k)-cc2)
		}
		if sum < bestSum {
			bestSum = sum
			bestJ = j
		}
	}
	if bestJ == 0 {
		return 0, false
	}
	return h.varMin + float64(bestJ)*width, true
}

// RAMBytes returns the on-mote memory footprint of the histogram: one
// 16-bit counter per slot plus ten bytes of bookkeeping (varMin, varMax as
// 32-bit floats, λ, and the slot count) — 130 bytes at N = 60, matching
// Figure 12(b).
func (h *Histogram) RAMBytes() int { return 2*h.n + 10 }
