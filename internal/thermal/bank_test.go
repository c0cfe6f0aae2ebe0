package thermal

import (
	"testing"
	"time"

	"bubblezero/internal/psychro"
)

// TestBankedRoomBitIdenticalToOwned drives a banked room and an owned-rows
// room through the same disturbed trajectory — ventilation, occupants,
// panel extraction, condensation, door/window events, a mid-run climate
// change — and requires every prognostic and derived float to match
// bit-for-bit at every tick. The bank only relocates storage; the kernel
// is the same code, so any divergence is a layout bug.
func TestBankedRoomBitIdenticalToOwned(t *testing.T) {
	cfg := DefaultConfig()
	initial := psychro.NewState(29, 70, 0)
	const co2 = 620.0

	own, err := NewRoom(cfg, initial, co2)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := NewRoomBank(3)
	if err != nil {
		t.Fatal(err)
	}
	// Bind the probe room to a middle row so both neighbours exist; bind
	// the neighbours too, with different state, to catch row bleed.
	left, err := bank.NewRoom(0, cfg, psychro.NewState(35, 40, 0), 900)
	if err != nil {
		t.Fatal(err)
	}
	bkd, err := bank.NewRoom(1, cfg, initial, co2)
	if err != nil {
		t.Fatal(err)
	}
	right, err := bank.NewRoom(2, cfg, psychro.NewState(18, 30, 0), 400)
	if err != nil {
		t.Fatal(err)
	}

	compare := func(tick int) {
		t.Helper()
		for z := ZoneID(0); z < NumZones; z++ {
			if own.Zone(z) != bkd.Zone(z) {
				t.Fatalf("tick %d zone %d: owned %+v != banked %+v", tick, z, own.Zone(z), bkd.Zone(z))
			}
			if own.ZoneDewPoint(z) != bkd.ZoneDewPoint(z) || own.ZoneRH(z) != bkd.ZoneRH(z) {
				t.Fatalf("tick %d zone %d: derived dew/RH diverged", tick, z)
			}
		}
		if own.AverageT() != bkd.AverageT() || own.AverageW() != bkd.AverageW() ||
			own.AverageCO2() != bkd.AverageCO2() || own.AverageDewPoint() != bkd.AverageDewPoint() {
			t.Fatalf("tick %d: averages diverged", tick)
		}
	}

	vent := VentInput{VolFlow: 0.05, Supply: psychro.NewState(18, 60, 0), SupplyCO2PPM: 420}
	apply := func(r *Room, tick int) {
		r.SetVent(1, vent)
		r.SetOccupants(2, (tick/600)%3)
		r.SetPanelExtraction(0, 150)
		r.SetCondensation(3, 1e-6)
		switch tick {
		case 300:
			r.OpenDoor(2 * time.Minute)
		case 900:
			r.OpenWindow(5 * time.Minute)
		case 1500:
			r.SetClimate(NewClimate(psychro.NewStateDewPoint(33, 27.5, 0), 410))
		}
	}

	const dt = 1.0
	for tick := 0; tick < 2400; tick++ {
		apply(own, tick)
		apply(bkd, tick)
		own.StepBatch(dt)
		bank.StepAll(dt)
		if tick%97 == 0 || tick >= 2395 {
			compare(tick)
		}
	}

	// The neighbours must have moved independently (no shared state).
	if left.Zone(0) == right.Zone(0) {
		t.Fatal("neighbour rows converged exactly; suspicious row aliasing")
	}
}

// TestRoomBankBinding pins the bank's row-binding contract: a bank has at
// least one row, out-of-range and already-bound rows are refused, and
// StepAll skips rows left unbound.
func TestRoomBankBinding(t *testing.T) {
	if _, err := NewRoomBank(0); err == nil {
		t.Fatal("NewRoomBank(0) succeeded, want error")
	}
	bank, err := NewRoomBank(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, row := range []int{-1, 2} {
		if _, err := bank.NewRoomAtOutdoor(row, cfg); err == nil {
			t.Fatalf("NewRoomAtOutdoor(%d) succeeded, want out-of-range error", row)
		}
	}
	if _, err := bank.NewRoomAtOutdoor(0, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := bank.NewRoomAtOutdoor(0, cfg); err == nil {
		t.Fatal("double-binding row 0 succeeded, want error")
	}
	bank.StepAll(1) // row 1 is unbound
}
