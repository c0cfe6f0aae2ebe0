package core

import (
	"fmt"
	"math"

	"bubblezero/internal/energy"
	"bubblezero/internal/hydraulic"
	"bubblezero/internal/radiant"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
	"bubblezero/internal/trace"
	"bubblezero/internal/vent"
	"bubblezero/internal/wsn"
)

// This file is the system side of the digital-twin snapshot surface (the
// engine side lives in internal/sim/state.go). Export only at a quiescent
// point between ticks — the same point restore resumes from — and restore
// only into a System assembled from the same configuration, seed, options,
// and fault plan: construction is deterministic, so the rebuilt topology
// matches position for position, and RestoreState patches the mutable
// residue on top.

// WatchdogState is the degradation watchdog's mutable state; present in a
// snapshot exactly when the exporting system was armed with a fault plan.
//
//bzlint:state ExportState RestoreState
type WatchdogState struct {
	TempAtS   [thermal.NumZones]float64
	TempVal   [thermal.NumZones]float64
	RHAtS     [thermal.NumZones]float64
	PanelAtS  [radiant.NumPanels]float64
	BoxAtS    [vent.NumBoxes]float64
	SupplyAtS float64

	TempSub   [thermal.NumZones]bool
	Frozen    bool
	SafeMode  [radiant.NumPanels]bool
	BoxStale  [vent.NumBoxes]bool
	SupplyOld bool

	Transitions int
}

// DeviceState pairs a sensor device's node ID with its exported state so
// restore can verify the rebuilt topology put the same device at the same
// position.
//
//bzlint:state ExportState RestoreState
type DeviceState struct {
	ID    wsn.NodeID
	State wsn.SensorDeviceState
}

// SystemState is a System's full mutable state: engine scheduling and RNG,
// plant physics, hydraulics, control modules, radio layer, accounting, and
// traces. The wSurfMemo condensation cache is deliberately absent — restore
// keys it to NaN and the next glue tick recomputes the same bits.
//
//bzlint:state ExportState RestoreState
type SystemState struct {
	Engine sim.EngineState

	Room        thermal.RoomState
	Net         wsn.NetworkState
	RadiantTank hydraulic.TankState
	VentTank    hydraulic.TankState
	Radiant     radiant.ModuleState
	Vent        vent.ModuleState

	Devices      []DeviceState                  // in registration order
	Broadcasters []wsn.PeriodicBroadcasterState // in registration order

	Recorder trace.RecorderState

	Watch *WatchdogState // nil when no fault plan armed the watchdog

	COPRadiant energy.COP
	COPVent    energy.COP

	CondensationS float64
	SinceTrace    float64
}

// ExportState captures the system's full mutable state. Call it between
// sim.Engine.RunTicks calls, which flush cadenced components on every exit.
func (s *System) ExportState() (SystemState, error) {
	eng, err := s.engine.ExportState()
	if err != nil {
		return SystemState{}, err
	}
	st := SystemState{
		Engine:        eng,
		Room:          s.room.ExportState(),
		Net:           s.net.ExportState(),
		RadiantTank:   s.radiantTank.ExportState(),
		VentTank:      s.ventTank.ExportState(),
		Radiant:       s.radiantMod.ExportState(),
		Vent:          s.ventMod.ExportState(),
		Devices:       make([]DeviceState, len(s.devices)),
		Broadcasters:  make([]wsn.PeriodicBroadcasterState, len(s.broadcasters)),
		Recorder:      s.rec.ExportState(),
		COPRadiant:    s.copRadiant,
		COPVent:       s.copVent,
		CondensationS: s.condensationS,
		SinceTrace:    s.sinceTrace,
	}
	for i, d := range s.devices {
		ds, err := d.ExportState()
		if err != nil {
			return SystemState{}, err
		}
		st.Devices[i] = DeviceState{ID: d.Node().ID(), State: ds}
	}
	for i, b := range s.broadcasters {
		st.Broadcasters[i] = b.ExportState()
	}
	if s.watch != nil {
		w := s.watch
		st.Watch = &WatchdogState{
			TempAtS:     w.tempAtS,
			TempVal:     w.tempVal,
			RHAtS:       w.rhAtS,
			PanelAtS:    w.panelAtS,
			BoxAtS:      w.boxAtS,
			SupplyAtS:   w.supplyAtS,
			TempSub:     w.tempSub,
			Frozen:      w.frozen,
			SafeMode:    w.safeMode,
			BoxStale:    w.boxStale,
			SupplyOld:   w.supplyOld,
			Transitions: w.transitions,
		}
	}
	return st, nil
}

// RestoreState patches a freshly assembled System to the captured point.
// The receiver must have been built from the same configuration, seed,
// options, and fault plan as the exporter; structural mismatches are
// reported as errors before any state is overwritten.
func (s *System) RestoreState(st SystemState) error {
	if len(st.Devices) != len(s.devices) {
		return fmt.Errorf("core: restore: system has %d devices, snapshot has %d",
			len(s.devices), len(st.Devices))
	}
	for i, d := range s.devices {
		if d.Node().ID() != st.Devices[i].ID {
			return fmt.Errorf("core: restore: device %d is %q, snapshot has %q",
				i, d.Node().ID(), st.Devices[i].ID)
		}
	}
	if len(st.Broadcasters) != len(s.broadcasters) {
		return fmt.Errorf("core: restore: system has %d broadcasters, snapshot has %d",
			len(s.broadcasters), len(st.Broadcasters))
	}
	if (s.watch != nil) != (st.Watch != nil) {
		return fmt.Errorf("core: restore: watchdog armed = %v, snapshot has %v",
			s.watch != nil, st.Watch != nil)
	}
	if err := s.engine.RestoreState(st.Engine); err != nil {
		return err
	}
	s.room.RestoreState(st.Room)
	if err := s.net.RestoreState(st.Net); err != nil {
		return err
	}
	s.radiantTank.RestoreState(st.RadiantTank)
	s.ventTank.RestoreState(st.VentTank)
	s.radiantMod.RestoreState(st.Radiant)
	s.ventMod.RestoreState(st.Vent)
	for i, d := range s.devices {
		if err := d.RestoreState(st.Devices[i].State); err != nil {
			return err
		}
	}
	for i, b := range s.broadcasters {
		b.RestoreState(st.Broadcasters[i])
	}
	s.rec.RestoreState(st.Recorder)
	if st.Watch != nil {
		w := s.watch
		w.tempAtS = st.Watch.TempAtS
		w.tempVal = st.Watch.TempVal
		w.rhAtS = st.Watch.RHAtS
		w.panelAtS = st.Watch.PanelAtS
		w.boxAtS = st.Watch.BoxAtS
		w.supplyAtS = st.Watch.SupplyAtS
		w.tempSub = st.Watch.TempSub
		w.frozen = st.Watch.Frozen
		w.safeMode = st.Watch.SafeMode
		w.boxStale = st.Watch.BoxStale
		w.supplyOld = st.Watch.SupplyOld
		w.transitions = st.Watch.Transitions
	}
	s.copRadiant = st.COPRadiant
	s.copVent = st.COPVent
	s.condensationS = st.CondensationS
	s.sinceTrace = st.SinceTrace
	for p := range s.wSurfMemo {
		s.wSurfMemo[p].tSurf = math.NaN()
		s.wSurfMemo[p].w = 0
	}
	return nil
}
