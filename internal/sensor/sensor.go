// Package sensor models the measurement devices instrumented in
// BubbleZERO (§III-B.2, §III-C.2): ADT7410 digital temperature sensors in
// the water pipes, SHT75 temperature/humidity sensors on panels and
// airbox outlets, and NDIR CO₂ sensors. Each model adds datasheet-grade
// bias, Gaussian noise, and quantisation to the true physical value, so
// controllers downstream see realistic imperfect readings.
package sensor

import (
	"math"
	"math/rand/v2"
)

// Model describes a generic analogue/digital sensor channel. Per-reading
// noise is the device's *repeatability* (typically 5–20× tighter than the
// datasheet accuracy); the accuracy band manifests as a fixed per-instance
// calibration Bias, drawn once via WithRandomBias.
type Model struct {
	// Name identifies the channel ("ADT7410", ...).
	Name string
	// NoiseStd is the standard deviation of the per-reading Gaussian
	// noise (the repeatability).
	NoiseStd float64
	// Bias is a fixed calibration offset applied to every reading.
	Bias float64
	// AccuracyBand is the datasheet accuracy: WithRandomBias draws the
	// per-instance Bias uniformly from ±AccuracyBand.
	AccuracyBand float64
	// Quantum is the output resolution; readings are rounded to the
	// nearest multiple. Zero disables quantisation.
	Quantum float64
	// Min and Max clamp the output to the sensor's measurable range. They
	// are ignored when Min >= Max.
	Min, Max float64
}

// WithRandomBias returns a copy of the model with a calibration bias drawn
// uniformly from ±AccuracyBand — one draw per physical sensor instance.
func (m Model) WithRandomBias(rng *rand.Rand) Model {
	if rng != nil && m.AccuracyBand > 0 {
		m.Bias += (rng.Float64()*2 - 1) * m.AccuracyBand
	}
	return m
}

// Read converts a true physical value into a sensor reading using rng for
// the noise draw. A nil rng produces a noiseless (but still biased,
// quantised, and clamped) reading.
func (m Model) Read(truth float64, rng *rand.Rand) float64 {
	v := truth + m.Bias
	if rng != nil && m.NoiseStd > 0 {
		v += rng.NormFloat64() * m.NoiseStd
	}
	if m.Quantum > 0 {
		v = math.Round(v/m.Quantum) * m.Quantum
	}
	if m.Min < m.Max {
		if v < m.Min {
			v = m.Min
		} else if v > m.Max {
			v = m.Max
		}
	}
	return v
}

// ADT7410 returns the model of the ADT7410 digital temperature sensor
// embedded in the water pipes: ±0.5 °C accuracy, 0.0625 °C (13-bit)
// resolution, −55…150 °C range.
func ADT7410() Model {
	return Model{
		Name:         "ADT7410",
		NoiseStd:     0.02, // repeatability; accuracy is the bias band
		AccuracyBand: 0.5,
		Quantum:      0.0625,
		Min:          -55,
		Max:          150,
	}
}

// SHT75Temperature returns the temperature channel of the SHT75:
// ±0.3 °C accuracy, 0.01 °C resolution, −40…123 °C range.
func SHT75Temperature() Model {
	return Model{
		Name:         "SHT75-T",
		NoiseStd:     0.01,
		AccuracyBand: 0.3,
		Quantum:      0.01,
		Min:          -40,
		Max:          123.8,
	}
}

// SHT75Humidity returns the relative-humidity channel of the SHT75:
// ±1.8 %RH accuracy, 0.05 %RH resolution, 0…100 % range.
func SHT75Humidity() Model {
	return Model{
		Name:         "SHT75-RH",
		NoiseStd:     0.1,
		AccuracyBand: 1.8,
		Quantum:      0.05,
		Min:          0,
		Max:          100,
	}
}

// CO2NDIR returns an NDIR CO₂ concentration sensor model: ±50 ppm
// accuracy, 1 ppm resolution, 0…10000 ppm range.
func CO2NDIR() Model {
	return Model{
		Name:         "CO2-NDIR",
		NoiseStd:     2,
		AccuracyBand: 50,
		Quantum:      1,
		Min:          0,
		Max:          10000,
	}
}
