package hydraulic

import "math"

// Snapshot state for the water circuit. Exact-key memos (the mixing loop's
// effectiveness cache) are deliberately not captured: a restored loop
// starts with a cold memo whose first miss recomputes the same floats from
// the same operands, so results are bit-identical either way.

// PumpState is a Pump's mutable state.
//
//bzlint:state ExportState RestoreState
type PumpState struct {
	Voltage float64
	Derate  float64
	Derated bool
}

// ExportState captures the pump command and fault derate.
func (p *Pump) ExportState() PumpState {
	return PumpState{Voltage: p.voltage, Derate: p.derate, Derated: p.derated}
}

// RestoreState overwrites the pump command and fault derate.
func (p *Pump) RestoreState(st PumpState) {
	p.voltage = st.Voltage
	p.derate = st.Derate
	p.derated = st.Derated
}

// TankState is a Tank's mutable state.
//
//bzlint:state ExportState RestoreState
type TankState struct {
	Tripped  bool
	Temp     float64
	LoadW    float64
	ThermalW float64
	ElecW    float64
}

// ExportState captures the tank's thermal state.
func (t *Tank) ExportState() TankState {
	return TankState{
		Tripped:  t.tripped,
		Temp:     t.temp,
		LoadW:    t.loadW,
		ThermalW: t.thermalW,
		ElecW:    t.elecW,
	}
}

// RestoreState overwrites the tank's thermal state.
func (t *Tank) RestoreState(st TankState) {
	t.tripped = st.Tripped
	t.temp = st.Temp
	t.loadW = st.LoadW
	t.thermalW = st.ThermalW
	t.elecW = st.ElecW
}

// MixingLoopState is a MixingLoop's mutable state, pumps included.
//
//bzlint:state ExportState RestoreState
type MixingLoopState struct {
	Supply  PumpState
	Recycle PumpState
	TRet    float64
	FMix    float64
	TMix    float64
	Last    PanelResult
	Surf    float64 // NaN before the first step
}

// ExportState captures the loop's hydraulic state.
func (l *MixingLoop) ExportState() MixingLoopState {
	return MixingLoopState{
		Supply:  l.Supply.ExportState(),
		Recycle: l.Recycle.ExportState(),
		TRet:    l.tRet,
		FMix:    l.fMix,
		TMix:    l.tMix,
		Last:    l.last,
		Surf:    l.surf,
	}
}

// RestoreState overwrites the loop's hydraulic state and resets the
// effectiveness memo to cold (first use recomputes bit-identically).
func (l *MixingLoop) RestoreState(st MixingLoopState) {
	l.Supply.RestoreState(st.Supply)
	l.Recycle.RestoreState(st.Recycle)
	l.tRet = st.TRet
	l.fMix = st.FMix
	l.tMix = st.TMix
	l.last = st.Last
	l.surf = st.Surf
	l.epsFlow = math.NaN()
	l.epsUA = 0
	l.mdotCp, l.eps = 0, 0
}
