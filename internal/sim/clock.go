// Package sim provides the discrete-time simulation kernel used by every
// BubbleZERO subsystem: a fixed-step clock, a component scheduler, a
// deterministic random-number plumbing scheme, and an event timeline.
//
// The kernel is deliberately simple — a fixed time step advanced
// synchronously across all registered components — because the physical
// processes being simulated (room thermal dynamics, water loops) are stiff
// on the order of minutes while the controllers and the wireless network
// operate on the order of seconds. A one-second base step resolves both.
package sim

import (
	"fmt"
	"time"
)

// Clock tracks simulated time. It advances in fixed steps and is shared by
// every component of an Engine. The zero value is not usable; construct one
// with NewClock.
type Clock struct {
	start time.Time
	step  time.Duration
	tick  uint64
}

// NewClock returns a clock starting at start that advances by step per tick.
// step must be positive.
func NewClock(start time.Time, step time.Duration) (*Clock, error) {
	if step <= 0 {
		return nil, fmt.Errorf("sim: clock step must be positive, got %v", step)
	}
	return &Clock{start: start, step: step}, nil
}

// MustClock is NewClock that panics on error. Intended for tests and
// program initialisation where the step is a compile-time constant.
func MustClock(start time.Time, step time.Duration) *Clock {
	c, err := NewClock(start, step)
	if err != nil {
		panic(err)
	}
	return c
}

// Now returns the current simulated instant.
func (c *Clock) Now() time.Time {
	return c.start.Add(time.Duration(c.tick) * c.step)
}

// Step returns the fixed tick duration.
func (c *Clock) Step() time.Duration { return c.step }

// Tick returns the number of steps taken so far.
func (c *Clock) Tick() uint64 { return c.tick }

// Elapsed returns the simulated time since the clock started.
func (c *Clock) Elapsed() time.Duration {
	return time.Duration(c.tick) * c.step
}

// Advance moves the clock forward one step.
func (c *Clock) Advance() {
	c.tick++
}
