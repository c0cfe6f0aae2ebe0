package radiant

import (
	"bubblezero/internal/hydraulic"
	"bubblezero/internal/pid"
)

// ModuleState is the radiant module's full mutable state, loops and PIDs
// included. Each PID state carries its own setpoint.
//
//bzlint:state ExportState RestoreState
type ModuleState struct {
	PanelDew   [NumPanels]float64 // NaN until first observation
	ZoneTemp   [4]float64
	TMixTarget [NumPanels]float64
	FMixTarget [NumPanels]float64
	SafeMode   [NumPanels]bool

	PIDs  [NumPanels]pid.State
	Loops [NumPanels]hydraulic.MixingLoopState
}

// ExportState captures the module's mutable state.
func (m *Module) ExportState() ModuleState {
	st := ModuleState{
		PanelDew:   m.panelDew,
		ZoneTemp:   m.zoneTemp,
		TMixTarget: m.tMixTarget,
		FMixTarget: m.fMixTarget,
		SafeMode:   m.safeMode,
	}
	for i := range m.pids {
		st.PIDs[i] = m.pids[i].ExportState()
		st.Loops[i] = m.loops[i].ExportState()
	}
	return st
}

// RestoreState overwrites the module's mutable state.
func (m *Module) RestoreState(st ModuleState) {
	m.panelDew = st.PanelDew
	m.zoneTemp = st.ZoneTemp
	m.tMixTarget = st.TMixTarget
	m.fMixTarget = st.FMixTarget
	m.safeMode = st.SafeMode
	for i := range m.pids {
		m.pids[i].RestoreState(st.PIDs[i])
		m.loops[i].RestoreState(st.Loops[i])
	}
}
