// Package radiant implements BubbleZERO's radiant cooling module
// (§III-B): the Control-C-1 / Control-C-2 logic that drives the two
// ceiling-panel mixing loops. Per panel it
//
//   - computes the panel-surface condensation threshold T_cdew from the
//     under-panel temperature/humidity sensors,
//   - holds the mixed water temperature at the target
//     T_t_mix = max(T_supp, T_cdew) by splitting flow between the supply
//     and recycle pumps, and
//   - runs a PID controller that maps the room-temperature error
//     ΔT = T_room − T_pref to the mixed flow target F_t_mix.
package radiant

import (
	"fmt"
	"math"

	"bubblezero/internal/hydraulic"
	"bubblezero/internal/pid"
	"bubblezero/internal/sim"
)

// NumPanels is the number of ceiling panels ("Two radiant panels are
// deployed on the ceiling and controlled separately").
const NumPanels = 2

// Config parameterises the module.
type Config struct {
	// TPref is the occupant's preferred room temperature in °C.
	TPref float64
	// FMixMax is the maximum mixed flow per panel in L/min (both pumps
	// combined).
	FMixMax float64
	// DewMargin is an additional safety margin (K) added above T_cdew
	// when computing the mixed-water target. The paper runs with the bare
	// max{T_supp, T_cdew}; a small margin absorbs sensor noise.
	DewMargin float64
	// IgnoreDewGuard disables the condensation coupling entirely: the
	// loop always targets T_mix = T_supp regardless of the under-panel
	// dew point. This is the ablation showing why the decomposed modules
	// must collaborate — running it in tropical air wets the panels.
	IgnoreDewGuard bool
	// SafeModeRaiseK is the extra margin (K) added on top of DewMargin
	// while a panel is in safe mode — the degradation watchdog's response
	// to untrusted humidity data. The held dew estimate may be wrong by
	// however far the room has moved since it froze, so the mixed-water
	// target backs away from the condensation threshold at the cost of
	// some cooling capacity.
	SafeModeRaiseK float64
	// PID is the F_mix controller configuration. Zero value selects the
	// calibrated default.
	PID pid.Config
}

// DefaultConfig returns the paper's operating configuration (25 °C target).
func DefaultConfig() Config {
	return Config{
		TPref:          25,
		FMixMax:        6,
		DewMargin:      0.2,
		SafeModeRaiseK: 1.5,
		PID: pid.Config{
			Kp:      2.0,
			Ki:      0.01,
			Kd:      0,
			OutMin:  0,
			OutMax:  6,
			Reverse: true, // room hotter than target → more flow
		},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FMixMax <= 0 {
		return fmt.Errorf("radiant: FMixMax must be > 0, got %v", c.FMixMax)
	}
	if c.DewMargin < 0 {
		return fmt.Errorf("radiant: DewMargin must be >= 0, got %v", c.DewMargin)
	}
	if c.SafeModeRaiseK < 0 {
		return fmt.Errorf("radiant: SafeModeRaiseK must be >= 0, got %v", c.SafeModeRaiseK)
	}
	return c.PID.Validate()
}

// Module is the radiant cooling controller plus its two hydraulic loops.
// Observations arrive through the Observe* methods (wired to the wireless
// network by the core system); Step runs the control law and advances the
// loops.
type Module struct {
	cfg   Config
	tank  *hydraulic.Tank
	loops [NumPanels]*hydraulic.MixingLoop
	pids  [NumPanels]*pid.Controller

	// Latest observations; NaN until first data arrives.
	panelDew [NumPanels]float64
	zoneTemp [4]float64

	// panelAir returns the current air temperature under each panel; set
	// by the core system (panel 0 spans subspaces 1–2, panel 1 spans 3–4).
	panelAir func(panel int) float64

	tMixTarget [NumPanels]float64
	fMixTarget [NumPanels]float64

	// safeMode panels target dew + DewMargin + SafeModeRaiseK (set by the
	// degradation watchdog while the panel's humidity inputs are stale).
	safeMode [NumPanels]bool
}

var _ sim.Component = (*Module)(nil)

// New builds the module over a tank and two mixing loops. panelAir
// supplies the true air temperature each panel exchanges against.
func New(cfg Config, tank *hydraulic.Tank, loops [NumPanels]*hydraulic.MixingLoop,
	panelAir func(panel int) float64) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tank == nil {
		return nil, fmt.Errorf("radiant: tank must not be nil")
	}
	if panelAir == nil {
		return nil, fmt.Errorf("radiant: panelAir must not be nil")
	}
	m := &Module{cfg: cfg, tank: tank, loops: loops, panelAir: panelAir}
	for i := range m.pids {
		if loops[i] == nil {
			return nil, fmt.Errorf("radiant: loop %d must not be nil", i)
		}
		ctrl, err := pid.New(cfg.PID)
		if err != nil {
			return nil, err
		}
		ctrl.SetSetpoint(cfg.TPref)
		m.pids[i] = ctrl
	}
	for i := range m.panelDew {
		m.panelDew[i] = math.NaN()
	}
	for i := range m.zoneTemp {
		m.zoneTemp[i] = math.NaN()
	}
	return m, nil
}

// Name implements sim.Component.
func (m *Module) Name() string { return "radiant.module" }

// SetSafeMode switches a panel's condensation safe mode: while on, the
// mixed-water target carries SafeModeRaiseK of extra margin above the
// (possibly stale) dew estimate. Out-of-range panels are ignored.
func (m *Module) SetSafeMode(panel int, on bool) {
	if panel >= 0 && panel < NumPanels {
		m.safeMode[panel] = on
	}
}

// SetIntegratorsFrozen freezes or thaws the F_mix PID integrators of
// both panels — the watchdog's response to the room-temperature feed
// going entirely stale (see pid.Controller.SetIntegratorFrozen).
func (m *Module) SetIntegratorsFrozen(on bool) {
	for _, c := range m.pids {
		c.SetIntegratorFrozen(on)
	}
}

// DeratePumps limits every loop pump of the module to frac of its
// commanded flow (1 restores healthy pumps) — the fault layer's
// pump-degradation hook.
func (m *Module) DeratePumps(frac float64) {
	for _, l := range m.loops {
		l.Supply.SetDerate(frac)
		l.Recycle.SetDerate(frac)
	}
}

// ObservePanelDew feeds an under-panel dew-point reading (°C) for the
// given panel, as computed by Control-C-1 from its six temperature and
// humidity sensors.
func (m *Module) ObservePanelDew(panel int, dew float64) {
	if panel >= 0 && panel < NumPanels && !math.IsNaN(dew) {
		m.panelDew[panel] = dew
	}
}

// ObserveZoneTemp feeds a room temperature reading (°C) for a subspace;
// the module averages the per-zone values into T_room.
func (m *Module) ObserveZoneTemp(zone int, t float64) {
	if zone >= 0 && zone < len(m.zoneTemp) && !math.IsNaN(t) {
		m.zoneTemp[zone] = t
	}
}

// RoomTemp returns the averaged observed room temperature, or NaN if no
// zone has reported yet.
func (m *Module) RoomTemp() float64 {
	var sum float64
	n := 0
	for _, t := range m.zoneTemp {
		if !math.IsNaN(t) {
			sum += t
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Loop exposes a panel's hydraulic loop for instrumentation.
func (m *Module) Loop(panel int) *hydraulic.MixingLoop {
	if panel < 0 || panel >= NumPanels {
		return nil
	}
	return m.loops[panel]
}

// PumpPowerW returns the combined pump draw of both loops.
func (m *Module) PumpPowerW() float64 {
	var sum float64
	for _, l := range m.loops {
		sum += l.PumpPowerW()
	}
	return sum
}

// Step implements sim.Component: one pass of the §III-B control law
// followed by the hydraulic update.
//
//bzlint:hotpath
func (m *Module) Step(env *sim.Env) {
	dt := env.Dt()
	tSupp := m.tank.Temp()
	troom := m.RoomTemp()

	for p := 0; p < NumPanels; p++ {
		// T_t_mix = max{T_supp, T_cdew}: supply water directly if it is
		// already above the condensation threshold, otherwise recycle
		// return water to lift the mixture to the threshold. Before the
		// first dew observation the module holds the loop at the air
		// temperature (no cooling) — the condensation-safe default.
		dew := m.panelDew[p]
		if math.IsNaN(dew) && !m.cfg.IgnoreDewGuard {
			m.tMixTarget[p] = m.panelAir(p)
			m.fMixTarget[p] = 0
			m.loops[p].CommandFlows(m.tMixTarget[p], 0)
			m.loops[p].Step(m.panelAir(p), dt)
			continue
		}
		if m.cfg.IgnoreDewGuard {
			m.tMixTarget[p] = tSupp
		} else {
			margin := m.cfg.DewMargin
			if m.safeMode[p] {
				margin += m.cfg.SafeModeRaiseK
			}
			m.tMixTarget[p] = math.Max(tSupp, dew+margin)
		}

		// F_t_mix from the PID on ΔT = T_room − T_pref. Without a room
		// reading yet the flow stays off.
		if math.IsNaN(troom) {
			m.fMixTarget[p] = 0
		} else {
			m.fMixTarget[p] = m.pids[p].Update(troom, dt)
			if m.fMixTarget[p] > m.cfg.FMixMax {
				m.fMixTarget[p] = m.cfg.FMixMax
			}
		}

		m.loops[p].CommandFlows(m.tMixTarget[p], m.fMixTarget[p])
		m.loops[p].Step(m.panelAir(p), dt)
	}
}

// PanelZones maps a panel index to the subspaces it covers: panel 0 cools
// subspaces 1–2, panel 1 cools subspaces 3–4.
func PanelZones(panel int) [2]int {
	if panel == 0 {
		return [2]int{0, 1}
	}
	return [2]int{2, 3}
}
