package thermal

import "math"

// RoomState is a Room's full mutable state, exported for digital-twin
// snapshots: the prognostic zone arrays, the installed climate, and the
// raw actuator/load input rows. Inputs are restored as the raw folded
// arrays rather than by replaying the setters — SetVent's density memo
// needs the supply pressure, which the folded rows no longer carry.
//
//bzlint:state ExportState RestoreState
type RoomState struct {
	T, W, CO2 [NumZones]float64

	Climate Climate

	VentVol    [NumZones]float64
	VentMdot   [NumZones]float64
	VentMdotCp [NumZones]float64
	VentT      [NumZones]float64
	VentW      [NumZones]float64
	VentCO2    [NumZones]float64

	PanelExtract [NumZones]float64
	Condensation [NumZones]float64

	Occupants [NumZones]int
	OccQ      [NumZones]float64
	OccW      [NumZones]float64
	OccC      [NumZones]float64

	DoorRemainingS   float64
	WindowRemainingS float64
	DoorOpenings     int
	WindowOpenings   int
}

// ExportState captures the room's mutable state. Derived caches and the
// supply-density memo are omitted: both recompute from the prognostic
// state with the same pure functions, so a restored room reads the same
// bits a warm one would.
func (r *Room) ExportState() RoomState {
	return RoomState{
		T: r.t, W: r.w, CO2: r.co2,
		Climate:      r.clim,
		VentVol:      r.in.ventVol,
		VentMdot:     r.in.ventMdot,
		VentMdotCp:   r.in.ventMdotCp,
		VentT:        r.in.ventT,
		VentW:        r.in.ventW,
		VentCO2:      r.in.ventCO2,
		PanelExtract: r.in.panelExtract,
		Condensation: r.in.condensation,
		Occupants:    r.in.occupants,
		OccQ:         r.in.occQ,
		OccW:         r.in.occW,
		OccC:         r.in.occC,

		DoorRemainingS:   r.doorRemaining,
		WindowRemainingS: r.windowRemaining,
		DoorOpenings:     r.doorOpenings,
		WindowOpenings:   r.windowOpenings,
	}
}

// RestoreState overwrites the room's mutable state. The climate goes
// through SetClimate so the boundary coefficients refold from the exact
// exported (Dew, RhoOut) terms; the density memo is keyed to NaN so the
// next SetVent recomputes unconditionally.
func (r *Room) RestoreState(st RoomState) {
	r.SetClimate(st.Climate)
	r.t, r.w, r.co2 = st.T, st.W, st.CO2
	r.in.ventVol = st.VentVol
	r.in.ventMdot = st.VentMdot
	r.in.ventMdotCp = st.VentMdotCp
	r.in.ventT = st.VentT
	r.in.ventW = st.VentW
	r.in.ventCO2 = st.VentCO2
	r.in.panelExtract = st.PanelExtract
	r.in.condensation = st.Condensation
	r.in.occupants = st.Occupants
	r.in.occQ = st.OccQ
	r.in.occW = st.OccW
	r.in.occC = st.OccC
	for i := range r.in.ventRho {
		r.in.ventRho[i].t = math.NaN()
		r.in.ventRho[i].p = math.NaN()
		r.in.ventRho[i].rho = 0
	}
	r.doorRemaining = st.DoorRemainingS
	r.windowRemaining = st.WindowRemainingS
	r.doorOpenings = st.DoorOpenings
	r.windowOpenings = st.WindowOpenings
	r.recomputeDerived()
}
