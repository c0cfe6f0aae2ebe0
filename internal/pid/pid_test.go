package pid

import (
	"math"
	"testing"
	"testing/quick"
)

// mustNew returns a controller for a config the test knows is valid.
func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{Kp: 1, OutMin: 0, OutMax: 5}, false},
		{"inverted limits", Config{Kp: 1, OutMin: 5, OutMax: 0}, true},
		{"equal limits", Config{Kp: 1, OutMin: 1, OutMax: 1}, true},
		{"negative gain", Config{Kp: -1, OutMin: 0, OutMax: 5}, true},
		{"all zero gains", Config{OutMin: 0, OutMax: 5}, true},
		{"integral only", Config{Ki: 0.5, OutMin: 0, OutMax: 5}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestProportionalResponse(t *testing.T) {
	c := mustNew(t, Config{Kp: 2, OutMin: -100, OutMax: 100})
	c.SetSetpoint(10)
	if got := c.Update(4, 1); got != 12 {
		t.Errorf("P-only output = %v, want 12", got)
	}
}

func TestReverseActing(t *testing.T) {
	c := mustNew(t, Config{Kp: 2, OutMin: -100, OutMax: 100, Reverse: true})
	c.SetSetpoint(10)
	// Measurement above setpoint with Reverse → positive output.
	if got := c.Update(14, 1); got != 8 {
		t.Errorf("reverse-acting output = %v, want 8", got)
	}
}

func TestOutputClamped(t *testing.T) {
	c := mustNew(t, Config{Kp: 100, OutMin: 0, OutMax: 5})
	c.SetSetpoint(10)
	if got := c.Update(0, 1); got != 5 {
		t.Errorf("output = %v, want clamp at 5", got)
	}
	if got := c.Update(100, 1); got != 0 {
		t.Errorf("output = %v, want clamp at 0", got)
	}
}

func TestIntegralEliminatesSteadyStateError(t *testing.T) {
	// First-order plant: y' = (u - y)/tau. P-only control of this plant has
	// steady-state error; PI must drive the error to ~0.
	c := mustNew(t, Config{Kp: 0.5, Ki: 0.4, OutMin: 0, OutMax: 50})
	c.SetSetpoint(10)
	y := 0.0
	const dt, tau = 0.1, 2.0
	for i := 0; i < 5000; i++ {
		u := c.Update(y, dt)
		y += dt * (u - y) / tau
	}
	if math.Abs(y-10) > 0.05 {
		t.Errorf("steady state y = %v, want ≈10", y)
	}
}

func TestAntiWindupRecovery(t *testing.T) {
	// Saturate hard for a long time, then flip the setpoint: a wound-up
	// integrator would take many steps to unwind; conditional integration
	// must recover quickly.
	c := mustNew(t, Config{Kp: 1, Ki: 1, OutMin: 0, OutMax: 1})
	c.SetSetpoint(100)
	for i := 0; i < 1000; i++ {
		c.Update(0, 1) // massive persistent error, output pinned at 1
	}
	c.SetSetpoint(0)
	out := c.Update(0, 1)
	if out > 0.5 {
		t.Errorf("post-windup output = %v, want prompt recovery below 0.5", out)
	}
}

func TestDerivativeOnMeasurementNoSetpointKick(t *testing.T) {
	c := mustNew(t, Config{Kp: 1, Kd: 10, OutMin: -1000, OutMax: 1000})
	c.SetSetpoint(0)
	c.Update(5, 1)
	c.Update(5, 1) // establish steady measurement
	before := c.lastOut
	c.SetSetpoint(50) // setpoint step with unchanged measurement
	after := c.Update(5, 1)
	// Without derivative kick, the jump must equal Kp * d(setpoint) alone.
	if math.Abs((after-before)-50) > 1e-9 {
		t.Errorf("setpoint step response = %v, want pure P jump of 50", after-before)
	}
}

func TestDerivativeDampsRateOfChange(t *testing.T) {
	c := mustNew(t, Config{Kp: 1, Kd: 5, OutMin: -1000, OutMax: 1000})
	c.SetSetpoint(0)
	c.Update(0, 1)
	// Measurement rising fast → derivative term should push output down
	// relative to pure P.
	out := c.Update(10, 1)
	pOnly := -10.0
	if out >= pOnly {
		t.Errorf("output with derivative = %v, want below P-only %v", out, pOnly)
	}
}

func TestNonPositiveDtReturnsPrevious(t *testing.T) {
	c := mustNew(t, Config{Kp: 1, OutMin: -10, OutMax: 10})
	c.SetSetpoint(5)
	first := c.Update(0, 1)
	if got := c.Update(100, 0); got != first {
		t.Errorf("dt=0 output = %v, want unchanged %v", got, first)
	}
	if got := c.Update(100, -1); got != first {
		t.Errorf("dt<0 output = %v, want unchanged %v", got, first)
	}
}

func TestNaNMeasurementIgnored(t *testing.T) {
	c := mustNew(t, Config{Kp: 1, Ki: 1, OutMin: -10, OutMax: 10})
	c.SetSetpoint(5)
	first := c.Update(0, 1)
	if got := c.Update(math.NaN(), 1); got != first {
		t.Errorf("NaN measurement output = %v, want unchanged %v", got, first)
	}
}

// Property: output is always within [OutMin, OutMax] regardless of inputs.
func TestOutputAlwaysInBoundsProperty(t *testing.T) {
	f := func(sp, meas int16, steps uint8) bool {
		c := mustNew(t, Config{Kp: 3, Ki: 2, Kd: 1, OutMin: -7, OutMax: 13})
		c.SetSetpoint(float64(sp))
		out := 0.0
		for i := 0; i <= int(steps%50); i++ {
			out = c.Update(float64(meas), 0.5)
			if out < -7 || out > 13 {
				return false
			}
		}
		return out >= -7 && out <= 13
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for a pure-P controller the output is a deterministic function
// of the last error only.
func TestPurePStatelessProperty(t *testing.T) {
	f := func(sp, m1, m2 int16) bool {
		a := mustNew(t, Config{Kp: 2, OutMin: -1e6, OutMax: 1e6})
		a.SetSetpoint(float64(sp))
		a.Update(float64(m1), 1)
		got := a.Update(float64(m2), 1)

		b := mustNew(t, Config{Kp: 2, OutMin: -1e6, OutMax: 1e6})
		b.SetSetpoint(float64(sp))
		want := b.Update(float64(m2), 1)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
