package core

import (
	"reflect"
	"testing"
	"time"

	"bubblezero/internal/fault"
)

// TestSharedSystemsReadOneConfig pins the fleet's memory model: every
// System built from one Shared handle, whatever mix of per-instance
// options it gets, reads the handle's single Config rather than a copy,
// and the options take effect without editing that Config.
func TestSharedSystemsReadOneConfig(t *testing.T) {
	sh, err := NewShared(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.MustPlan(fault.Jam(time.Hour, time.Minute))
	cases := []struct {
		name     string
		opts     []Option
		seed     uint64
		outdoorT float64
		armed    bool
	}{
		{"none", nil, sh.cfg.Seed, sh.cfg.Thermal.Outdoor.T, false},
		{"seed", []Option{WithSeed(7)}, 7, sh.cfg.Thermal.Outdoor.T, false},
		{"outdoor", []Option{WithOutdoor(33, 26)}, sh.cfg.Seed, 33, false},
		{"plan", []Option{WithFaultPlan(plan)}, sh.cfg.Seed, sh.cfg.Thermal.Outdoor.T, true},
		{"seed+outdoor", []Option{WithSeed(8), WithOutdoor(30, 24)}, 8, 30, false},
		{"seed+plan", []Option{WithSeed(9), WithFaultPlan(plan)}, 9, sh.cfg.Thermal.Outdoor.T, true},
		{"all", []Option{WithOutdoor(31, 25), WithFaultPlan(plan), WithSeed(10)}, 10, 31, true},
	}
	for _, tc := range cases {
		s, err := sh.NewSystem(tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s.cfg != &sh.cfg {
			t.Errorf("%s: System holds its own Config, want the Shared handle's", tc.name)
		}
		if got := s.Engine().RNG().Seed(); got != tc.seed {
			t.Errorf("%s: seed = %d, want %d", tc.name, got, tc.seed)
		}
		if got := s.Room().Outdoor().T; got != tc.outdoorT {
			t.Errorf("%s: outdoor T = %v, want %v", tc.name, got, tc.outdoorT)
		}
		if got := s.Degradation().Armed; got != tc.armed {
			t.Errorf("%s: watchdog armed = %v, want %v", tc.name, got, tc.armed)
		}
	}
	if !reflect.DeepEqual(sh.cfg, DefaultConfig()) {
		t.Error("per-instance options edited the shared Config")
	}
}
