package adaptive

import (
	"reflect"
	"testing"
)

// feed drives s with n samples of a slow ramp plus a step every 40
// samples, so the window fills and the histogram learns a range.
func feed(s *Scheduler, n int, base float64) {
	for i := 0; i < n; i++ {
		v := base + float64(i)*0.01
		if i%40 == 0 {
			v += 3
		}
		s.OnSample(v)
	}
}

// TestSchedulerRestoreRejectsOutOfRange feeds RestoreState a state with
// one field outside its bounds at a time. Each must return an error and
// leave the receiver exactly as it was; an accepted out-of-range window
// position would make the next OnSample index past the window.
func TestSchedulerRestoreRejectsOutOfRange(t *testing.T) {
	cfg := DefaultConfig(TsplTemperatureS)
	src, _ := NewScheduler(cfg)
	feed(src, 300, 25)
	good, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*SchedulerState)
	}{
		{"WPos negative", func(st *SchedulerState) { st.WPos = -1 }},
		{"WPos at window length", func(st *SchedulerState) { st.WPos = cfg.Window }},
		{"WCount negative", func(st *SchedulerState) { st.WCount = -1 }},
		{"WCount above window length", func(st *SchedulerState) { st.WCount = cfg.Window + 1 }},
		{"W zero", func(st *SchedulerState) { st.W = 0 }},
		{"W above WMax", func(st *SchedulerState) { st.W = cfg.WMax + 1 }},
		{"window length", func(st *SchedulerState) { st.Window = st.Window[:cfg.Window-1] }},
		{"histogram slots", func(st *SchedulerState) { st.Hist.Counts = st.Hist.Counts[:cfg.N-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			bad.Window = append([]float64(nil), good.Window...)
			bad.Hist.Counts = append([]uint32(nil), good.Hist.Counts...)
			tc.edit(&bad)

			dst, _ := NewScheduler(cfg)
			feed(dst, 50, 18)
			before, _ := dst.ExportState()
			if err := dst.RestoreState(bad); err == nil {
				t.Fatal("RestoreState accepted an out-of-range state")
			}
			after, _ := dst.ExportState()
			if !reflect.DeepEqual(before, after) {
				t.Errorf("rejected restore modified the scheduler:\nbefore %+v\nafter  %+v", before, after)
			}
			dst.OnSample(18) // must not panic
		})
	}
	// The unedited state is accepted.
	dst, _ := NewScheduler(cfg)
	if err := dst.RestoreState(good); err != nil {
		t.Fatalf("RestoreState rejected a valid state: %v", err)
	}
}
