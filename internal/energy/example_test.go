package energy_test

import (
	"fmt"

	"bubblezero/internal/energy"
)

// The paper's Figure 11 arithmetic: COP = removed heat / consumed power,
// with the two modules combining into the system figure.
func ExampleCOP() {
	var radiant, vent energy.COP
	radiant.Add(964.8, 213.4, 3600) // paper's measured radiant module
	vent.Add(213.2, 75.6, 3600)     // paper's measured ventilation module
	total := energy.Combine(radiant, vent)
	fmt.Printf("Bubble-C %.2f, Bubble-V %.2f, BubbleZERO %.2f\n",
		radiant.Value(), vent.Value(), total.Value())
	// Output:
	// Bubble-C 4.52, Bubble-V 2.82, BubbleZERO 4.08
}

// Lifetime turns the TelosB energy profile (54 mW transmit, 0.3 mW
// sampling, the idle draw) into a battery-lifetime projection — the
// paper's 0.7 vs 3.2 year comparison for a mote sampling every 2 s and
// sending every 2 s (fixed) or every 48 s (adaptive).
func ExampleBattery_Lifetime() {
	b := energy.NewTwoAA()
	avgW := func(tsplS, tsndS float64) float64 {
		return energy.IdlePowerW + energy.SampleEnergyJ/tsplS + energy.TxEnergyPerPacketJ/tsndS
	}
	fixed := b.Lifetime(avgW(2, 2))
	adaptive := b.Lifetime(avgW(2, 48))
	fmt.Printf("fixed: %.1f years, adaptive: %.1f years\n",
		energy.Years(fixed), energy.Years(adaptive))
	// Output:
	// fixed: 0.7 years, adaptive: 3.3 years
}
