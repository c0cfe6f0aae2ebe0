package adaptive_test

import (
	"fmt"

	"bubblezero/internal/adaptive"
)

// The paper's Figure 9 worked example: variances in [0, 10] across five
// slots with counts U = [5, 10, 3, 7, 5]. Algorithm 1 finds the split
// after slot 3 (total intra-cluster distance 28), so λ = 6.
func ExampleHistogram_Threshold() {
	h, err := adaptive.NewHistogram(5)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Establish the [0, 10] range, then fill the paper's counts (the two
	// seeding values land in the first and last slots).
	h.Add(0)
	h.Add(10)
	counts := []int{4, 10, 3, 7, 4} // minus the two seeds
	for slot, c := range counts {
		center := 1.0 + 2.0*float64(slot)
		for i := 0; i < c; i++ {
			h.Add(center)
		}
	}
	lambda, ok := h.Threshold()
	fmt.Printf("lambda = %.0f (ok=%v)\n", lambda, ok)
	fmt.Printf("RAM footprint: %d bytes\n", h.RAMBytes())
	// Output:
	// lambda = 6 (ok=true)
	// RAM footprint: 20 bytes
}

// A scheduler backs off to T_snd = w_max × T_spl under stable readings and
// snaps back to T_spl when the variance crosses λ.
func ExampleScheduler() {
	s, err := adaptive.NewScheduler(adaptive.DefaultConfig(2))
	if err != nil {
		fmt.Println(err)
		return
	}
	for i := 0; i < 400; i++ {
		s.OnSample(25.0) // perfectly stable room
	}
	fmt.Printf("stable: w=%.0f, Tsnd=%.0fs\n", s.TsndS()/s.Config().TsplS, s.TsndS())
	// Output:
	// stable: w=32, Tsnd=64s
}

// CPUSecondsMSP430 models Algorithm 1's on-mote cost; the paper measures
// ≈1.6 s at N = 60 on the TelosB's 8 MHz MSP430.
func ExampleCPUSecondsMSP430() {
	fmt.Printf("N=40: %.2f s\n", adaptive.CPUSecondsMSP430(40))
	fmt.Printf("N=60: %.2f s\n", adaptive.CPUSecondsMSP430(60))
	// Output:
	// N=40: 0.71 s
	// N=60: 1.60 s
}
