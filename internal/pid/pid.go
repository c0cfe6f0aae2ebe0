// Package pid implements the Proportional-Integral-Derivative controller
// used by both BubbleZERO control modules (§III-B and §III-C): the radiant
// module's F_mix flow controller and the ventilation module's coil-flow
// controller. The implementation uses derivative-on-measurement (avoids
// derivative kick on setpoint changes) and conditional-integration
// anti-windup (the integrator freezes while the output is saturated in the
// direction that would deepen saturation).
package pid

import (
	"fmt"
	"math"
)

// Config parameterises a Controller.
type Config struct {
	// Kp, Ki, Kd are the proportional, integral, and derivative gains.
	Kp, Ki, Kd float64
	// OutMin and OutMax clamp the controller output (actuator limits).
	OutMin, OutMax float64
	// Reverse inverts the error sign: use for processes where increasing
	// the actuator output decreases the measured value (e.g. more coolant
	// flow lowers temperature, so a cooling loop controlling temperature
	// directly is reverse-acting).
	Reverse bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.OutMax <= c.OutMin {
		return fmt.Errorf("pid: OutMax (%v) must exceed OutMin (%v)", c.OutMax, c.OutMin)
	}
	if c.Kp < 0 || c.Ki < 0 || c.Kd < 0 {
		return fmt.Errorf("pid: gains must be non-negative (kp=%v ki=%v kd=%v)", c.Kp, c.Ki, c.Kd)
	}
	if c.Kp == 0 && c.Ki == 0 && c.Kd == 0 {
		return fmt.Errorf("pid: at least one gain must be positive")
	}
	return nil
}

// Controller is a discrete PID controller. Construct with New; the zero
// value is not usable.
type Controller struct {
	cfg Config

	setpoint float64
	integral float64
	prevMeas float64
	hasPrev  bool
	frozen   bool
	lastOut  float64
}

// New returns a controller for the given configuration.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, lastOut: cfg.OutMin}, nil
}

// SetSetpoint updates the control target.
func (c *Controller) SetSetpoint(sp float64) { c.setpoint = sp }

// SetIntegratorFrozen holds the integral state constant across Update
// calls while on. Degradation logic freezes the integrator when the
// measurement feeding the loop has gone stale: a held (repeated) reading
// carries a persistent error that would otherwise wind the integrator
// toward an actuator extreme the real process never asked for. P and D
// action remain live so control resumes cleanly when the input returns.
func (c *Controller) SetIntegratorFrozen(on bool) { c.frozen = on }

// Update advances the controller by dt seconds given the latest process
// measurement and returns the clamped actuator command. dt must be
// positive; non-positive dt returns the previous output unchanged.
func (c *Controller) Update(measurement, dt float64) float64 {
	if dt <= 0 || math.IsNaN(measurement) {
		return c.lastOut
	}
	errv := c.setpoint - measurement
	if c.cfg.Reverse {
		errv = -errv
	}

	p := c.cfg.Kp * errv

	// Derivative on measurement: -Kd * d(meas)/dt (sign folded into errv
	// convention via Reverse).
	var d float64
	if c.hasPrev && c.cfg.Kd > 0 {
		dMeas := (measurement - c.prevMeas) / dt
		if c.cfg.Reverse {
			d = c.cfg.Kd * dMeas
		} else {
			d = -c.cfg.Kd * dMeas
		}
	}
	c.prevMeas = measurement
	c.hasPrev = true

	// Tentative integral advance with conditional anti-windup: only
	// integrate if the unsaturated output is inside limits, or the error
	// drives the output back toward the valid range. An externally frozen
	// integrator (stale input) skips the advance entirely.
	if !c.frozen {
		tentative := c.integral + c.cfg.Ki*errv*dt
		unsat := p + tentative + d
		switch {
		case unsat > c.cfg.OutMax && errv > 0:
			// would deepen high saturation: freeze integrator
		case unsat < c.cfg.OutMin && errv < 0:
			// would deepen low saturation: freeze integrator
		default:
			c.integral = tentative
		}
	}

	out := p + c.integral + d
	if out > c.cfg.OutMax {
		out = c.cfg.OutMax
	} else if out < c.cfg.OutMin {
		out = c.cfg.OutMin
	}
	c.lastOut = out
	return out
}
