package vent

import (
	"math"

	"bubblezero/internal/hydraulic"
	"bubblezero/internal/pid"
	"bubblezero/internal/psychro"
)

// ZoneObsState is one subspace's observation state (NaN before data).
// The humidity-ratio memo is not captured: restore keys it to NaN so the
// next control pass recomputes from the same observation pair.
//
//bzlint:state ExportState RestoreState
type ZoneObsState struct {
	Temp, RH, CO2 float64
}

// AirboxState is one airbox's mutable state, pump and PID included.
//
//bzlint:state ExportState RestoreState
type AirboxState struct {
	FanFlow    float64
	FlapOpen   bool
	CurDew     float64 // NaN until first air
	Outlet     psychro.State
	Condensate float64
	CoilLoadW  float64
	Pump       hydraulic.PumpState
	Dew        pid.State
}

// ModuleState is the ventilation module's full mutable state. The
// psychrometric memos are rebuilt cold (same pure functions, same
// arguments, same bits).
//
//bzlint:state ExportState RestoreState
type ModuleState struct {
	Zones        [NumBoxes]ZoneObsState
	TSupp        float64 // NaN until Control-C-1 broadcasts
	AirboxDew    [NumBoxes]float64
	BoxUntrusted [NumBoxes]bool
	TaTarget     float64

	Boxes [NumBoxes]AirboxState
}

// ExportState captures the module's mutable state.
func (m *Module) ExportState() ModuleState {
	st := ModuleState{
		TSupp:        m.tSupp,
		AirboxDew:    m.airboxDew,
		BoxUntrusted: m.boxUntrusted,
		TaTarget:     m.taTarget,
	}
	for i := range m.zones {
		z := &m.zones[i]
		st.Zones[i] = ZoneObsState{Temp: z.temp, RH: z.rh, CO2: z.co2}
	}
	for i, b := range m.boxes {
		st.Boxes[i] = AirboxState{
			FanFlow:    b.fanFlow,
			FlapOpen:   b.flapOpen,
			CurDew:     b.curDew,
			Outlet:     b.outlet,
			Condensate: b.condensate,
			CoilLoadW:  b.coilLoadW,
			Pump:       b.pump.ExportState(),
			Dew:        b.dew.ExportState(),
		}
	}
	return st
}

// RestoreState overwrites the module's mutable state and invalidates
// every exact-key memo.
func (m *Module) RestoreState(st ModuleState) {
	m.tSupp = st.TSupp
	m.airboxDew = st.AirboxDew
	m.boxUntrusted = st.BoxUntrusted
	m.taTarget = st.TaTarget
	for i := range m.zones {
		m.zones[i] = zoneObs{
			temp: st.Zones[i].Temp, rh: st.Zones[i].RH, co2: st.Zones[i].CO2,
			wKeyTemp: math.NaN(), wKeyRH: math.NaN(),
		}
	}
	for i, b := range m.boxes {
		bs := &st.Boxes[i]
		b.fanFlow = bs.FanFlow
		b.flapOpen = bs.FlapOpen
		b.curDew = bs.CurDew
		b.outlet = bs.Outlet
		b.condensate = bs.Condensate
		b.coilLoadW = bs.CoilLoadW
		b.pump.RestoreState(bs.Pump)
		b.dew.RestoreState(bs.Dew)
	}
	m.roomDewMemo = memo2{}
	m.sizingMemo.valid = false
}
