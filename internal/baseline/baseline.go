// Package baseline implements the conventional "AirCon" HVAC system the
// paper compares against in Figure 11: a single all-air unit that uses
// ≈8 °C supply air for cooling, dehumidification, and ventilation at
// once. Because every joule is moved at the 8 °C working temperature, the
// temperature lift — and therefore the exergy cost — is high, and the
// measured COP lands around 2.8 (the value the paper cites from [23][26])
// instead of BubbleZERO's 4.07.
package baseline

import (
	"fmt"

	"bubblezero/internal/energy"
	"bubblezero/internal/exergy"
	"bubblezero/internal/pid"
	"bubblezero/internal/psychro"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
)

// Config parameterises the AirCon unit.
type Config struct {
	// TPref is the thermostat setpoint in °C.
	TPref float64
	// SupplyAirC is the coil discharge air temperature (the traditional
	// "as low as 8 °C air for both cooling and dehumidification").
	SupplyAirC float64
	// SupplyDewC is the coil discharge dew point (air leaves the coil
	// nearly saturated).
	SupplyDewC float64
	// MaxFlowM3s is the air handler's total supply capacity.
	MaxFlowM3s float64
	// FreshAirFraction is the outdoor-air fraction mixed into the return
	// stream for ventilation.
	FreshAirFraction float64
	// FanMaxPowerW is the air-handler fan draw at full flow.
	FanMaxPowerW float64
	// Chiller is the refrigeration model (same machine class as
	// BubbleZERO's, producing a much colder medium).
	Chiller exergy.Chiller
	// PID is the supply-flow controller configuration.
	PID pid.Config
}

// DefaultConfig returns the calibrated conventional system.
func DefaultConfig() Config {
	return Config{
		TPref:            25,
		SupplyAirC:       8,
		SupplyDewC:       7.5,
		MaxFlowM3s:       0.12,
		FreshAirFraction: 0.15,
		FanMaxPowerW:     60,
		Chiller:          exergy.DefaultChiller(),
		PID: pid.Config{
			Kp:      0.04,
			Ki:      0.0004,
			OutMin:  0,
			OutMax:  0.12,
			Reverse: true,
		},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.MaxFlowM3s <= 0:
		return fmt.Errorf("baseline: MaxFlowM3s must be > 0, got %v", c.MaxFlowM3s)
	case c.FreshAirFraction < 0 || c.FreshAirFraction > 1:
		return fmt.Errorf("baseline: FreshAirFraction must be in [0, 1], got %v", c.FreshAirFraction)
	case c.FanMaxPowerW < 0:
		return fmt.Errorf("baseline: FanMaxPowerW must be >= 0, got %v", c.FanMaxPowerW)
	case c.SupplyDewC > c.SupplyAirC:
		return fmt.Errorf("baseline: SupplyDewC (%v) cannot exceed SupplyAirC (%v)",
			c.SupplyDewC, c.SupplyAirC)
	}
	if err := c.Chiller.Validate(); err != nil {
		return err
	}
	return c.PID.Validate()
}

// Unit is the AirCon system operating on a thermal.Room via wired
// sensing (no WSN — the conventional system is centrally wired).
type Unit struct {
	cfg  Config
	room *thermal.Room
	ctrl *pid.Controller

	flow     float64 // current total supply flow, m³/s
	coilLoad float64 // W
	elec     float64 // W (chiller + fan)
	cop      energy.COP
}

var _ sim.Component = (*Unit)(nil)

// New builds an AirCon unit over the given room.
func New(cfg Config, room *thermal.Room) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if room == nil {
		return nil, fmt.Errorf("baseline: room must not be nil")
	}
	ctrl, err := pid.New(cfg.PID)
	if err != nil {
		return nil, err
	}
	ctrl.SetSetpoint(cfg.TPref)
	return &Unit{cfg: cfg, room: room, ctrl: ctrl}, nil
}

// Name implements sim.Component.
func (u *Unit) Name() string { return "baseline.aircon" }

// COP returns the accumulated coefficient-of-performance measurement.
func (u *Unit) COP() energy.COP { return u.cop }

// ResetCOP clears the COP accumulators (e.g. after the boot transient, so
// the steady-state hour is measured alone).
func (u *Unit) ResetCOP() { u.cop = energy.COP{} }

// Step implements sim.Component: thermostat → supply flow → coil energy
// balance → room boundary conditions.
func (u *Unit) Step(env *sim.Env) {
	dt := env.Dt()
	u.flow = u.ctrl.Update(u.room.AverageT(), dt)
	if u.flow <= 0 {
		u.coilLoad = 0
		u.elec = 0
		for z := 0; z < thermal.NumZones; z++ {
			u.room.SetVent(thermal.ZoneID(z), thermal.VentInput{})
		}
		return
	}

	outdoor := u.room.Outdoor()
	supply := psychro.NewStateDewPoint(u.cfg.SupplyAirC, u.cfg.SupplyDewC, outdoor.P)

	// Return air is the average room state mixed with the fresh-air
	// fraction; the coil cools the mixture down to the supply state.
	ret := psychro.State{T: u.room.AverageT(), W: u.room.AverageW(), P: outdoor.P}
	mdot := u.flow * psychro.DryAirDensity(ret.T, ret.P)
	mix := psychro.Mix(ret, mdot*(1-u.cfg.FreshAirFraction), outdoor, mdot*u.cfg.FreshAirFraction)
	u.coilLoad = mdot * (mix.Enthalpy() - supply.Enthalpy()) * 1000
	if u.coilLoad < 0 {
		u.coilLoad = 0
	}

	chillerElec := u.cfg.Chiller.Power(u.coilLoad, u.cfg.SupplyAirC, outdoor.T)
	frac := u.flow / u.cfg.MaxFlowM3s
	fan := u.cfg.FanMaxPowerW * frac * frac * frac
	u.elec = chillerElec + fan

	// The removed heat the paper's COP uses is what the coil moves.
	u.cop.Add(u.coilLoad, u.elec, dt)

	perZone := u.flow / thermal.NumZones
	for z := 0; z < thermal.NumZones; z++ {
		u.room.SetVent(thermal.ZoneID(z), thermal.VentInput{
			VolFlow:      perZone,
			Supply:       supply,
			SupplyCO2PPM: u.room.Config().OutdoorCO2PPM,
		})
	}
}
