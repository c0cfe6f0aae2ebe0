package fleet

import (
	"context"
	"math"
	"testing"

	"bubblezero/internal/thermal"
)

// A climate event that is not finite, leaves the Magnus range or puts the
// dew point above the dry bulb is refused by Apply: nothing is queued, so
// nothing is journaled after the next run and every zone stays finite.
func TestClimateEventValidation(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemBudgetBytes = 0
	fl, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		tC, dew float64
	}{
		{"huge dry bulb", 1e308, 20},
		{"NaN dry bulb", math.NaN(), 20},
		{"-Inf dry bulb", math.Inf(-1), 20},
		{"NaN dew point", 30, math.NaN()},
		{"+Inf dew point", 30, math.Inf(1)},
		{"huge dew point", 30, 1e308},
		{"below absolute zero", -300, -310},
		{"above the range", 5000, 20},
		{"dew point above dry bulb", 28, 29},
	} {
		if err := fl.Apply(Event{Kind: EventClimate, TC: tc.tC, DewC: tc.dew}); err == nil {
			t.Errorf("%s (t_c %v, dew_c %v): Apply accepted it", tc.name, tc.tC, tc.dew)
		}
	}
	if err := fl.RunTicks(context.Background(), 600); err != nil {
		t.Fatal(err)
	}
	if j := fl.Journal(); len(j) != 0 {
		t.Errorf("journal holds %d events after refused climate events, want 0", len(j))
	}
	for i := 0; i < len(fl.buildings); i++ {
		for z := 0; z < thermal.NumZones; z++ {
			st := fl.Building(i).Room().Zone(thermal.ZoneID(z))
			if math.IsNaN(st.T) || math.IsInf(st.T, 0) || math.IsNaN(st.W) || math.IsInf(st.W, 0) {
				t.Errorf("building %d zone %d: T %v, W %v, want finite", i, z, st.T, st.W)
			}
		}
	}

	// The range ends and saturated air are valid.
	for _, ev := range []Event{
		{Kind: EventClimate, TC: 60, DewC: 60},
		{Kind: EventClimate, TC: -45, DewC: -45},
		{Kind: EventClimate, TC: 34, DewC: 33},
	} {
		if err := ev.Validate(len(fl.buildings)); err != nil {
			t.Errorf("t_c %v dew_c %v: %v", ev.TC, ev.DewC, err)
		}
	}
}
