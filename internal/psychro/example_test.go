package psychro_test

import (
	"fmt"

	"bubblezero/internal/psychro"
)

// The control laws compute dew points from temperature and relative
// humidity with the Magnus formula (a = 243.12, b = 17.62) — the exact
// equation in the paper's §III-B.
func ExampleDewPoint() {
	// The paper's outdoor condition: 28.9 °C at tropical humidity.
	fmt.Printf("outdoor dew point: %.1f °C\n", psychro.DewPoint(28.9, 92))
	// The occupant target: 25 °C at 65.3 % RH.
	fmt.Printf("target dew point: %.1f °C\n", psychro.DewPoint(25, 65.3))
	// Output:
	// outdoor dew point: 27.5 °C
	// target dew point: 18.0 °C
}

// States bundle dry-bulb temperature and humidity ratio; derived
// quantities (RH, dew point, enthalpy) come from methods.
func ExampleState() {
	outdoor := psychro.NewStateDewPoint(28.9, 27.4, 0)
	target := psychro.NewStateDewPoint(25, 18, 0)
	fmt.Printf("outdoor: %.1f kJ/kg\n", outdoor.Enthalpy())
	fmt.Printf("target:  %.1f kJ/kg\n", target.Enthalpy())
	// Output:
	// outdoor: 88.3 kJ/kg
	// target:  58.0 kJ/kg
}

// Mix models the adiabatic merging of two air streams — the airbox outlet
// joining room air, or the AirCon's fresh-air blend.
func ExampleMix() {
	room := psychro.State{T: 25, W: psychro.HumidityRatio(25, 60, psychro.AtmPressure), P: psychro.AtmPressure}
	fresh := psychro.NewStateDewPoint(18, 16, 0)
	blended := psychro.Mix(room, 0.8, fresh, 0.2)
	fmt.Printf("blend: %.1f °C, dew %.1f °C\n", blended.T, blended.DewPoint())
	// Output:
	// blend: 23.6 °C, dew 16.6 °C
}
