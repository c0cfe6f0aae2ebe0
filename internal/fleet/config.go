// Package fleet instantiates and steps thousands of independent
// BubbleZERO buildings in one process. Every building is a full
// core.System — room physics, hydraulics, sensor network, controllers —
// assembled from a single validated core.Shared configuration handle,
// parameterized per building (seed, climate boundary, occupancy, fault
// plan) by a pure function of the fleet seed and the building index.
//
// Buildings are sharded across a bounded worker pool: each shard owns a
// disjoint subset and steps it sequentially, so inside an epoch there is
// no cross-shard synchronization and no shared mutable state. Because
// buildings never interact, a building stepped inside an N-building fleet
// at any shard count produces bit-identical outputs to the same building
// stepped alone — the property the determinism tests pin.
package fleet

import (
	"fmt"
	"math/bits"

	"bubblezero/internal/core"
	"bubblezero/internal/fault"
	"bubblezero/internal/runner"
	"bubblezero/internal/thermal"
	"bubblezero/internal/trace"
)

// Variation bounds the deterministic per-building parameter draws. Zero
// values disable the corresponding axis.
type Variation struct {
	// OutdoorTempLoC/HiC bound the outdoor dry-bulb draw in °C. Equal
	// values (including both zero) disable climate variation and every
	// building inherits Base.Thermal.Outdoor.
	OutdoorTempLoC, OutdoorTempHiC float64
	// OutdoorDewLoC/HiC bound the outdoor dew-point draw in °C. Draws are
	// clamped at least 1 K below the building's dry-bulb draw.
	OutdoorDewLoC, OutdoorDewHiC float64
	// MaxOccupants caps the uniform per-zone occupant draw (0 leaves
	// every zone empty).
	MaxOccupants int
}

func (v Variation) validate() error {
	if v.OutdoorTempHiC < v.OutdoorTempLoC {
		return fmt.Errorf("fleet: Vary.OutdoorTempHiC %v < OutdoorTempLoC %v", v.OutdoorTempHiC, v.OutdoorTempLoC)
	}
	if v.OutdoorDewHiC < v.OutdoorDewLoC {
		return fmt.Errorf("fleet: Vary.OutdoorDewHiC %v < OutdoorDewLoC %v", v.OutdoorDewHiC, v.OutdoorDewLoC)
	}
	if v.MaxOccupants < 0 {
		return fmt.Errorf("fleet: Vary.MaxOccupants must be >= 0, got %d", v.MaxOccupants)
	}
	return nil
}

// climate reports whether the variation draws a per-building climate.
func (v Variation) climate() bool {
	return v.OutdoorTempHiC > v.OutdoorTempLoC || v.OutdoorDewHiC > v.OutdoorDewLoC ||
		//bzlint:allow floateq zero-value sentinel; an all-zero range means "axis disabled", a degenerate nonzero Lo==Hi range is a real fixed-value draw
		v.OutdoorTempLoC != 0 || v.OutdoorDewLoC != 0
}

// Config parameterises a Fleet.
type Config struct {
	// Buildings is the fleet size N. Must be > 0.
	Buildings int
	// Shards is the number of workers the buildings are partitioned
	// across. 0 selects NumCPU; otherwise it must lie in [1, Buildings].
	// The shard count never affects simulation results, only wall-clock.
	Shards int
	// Seed is the fleet seed every per-building seed derives from.
	Seed uint64
	// Base is the building template. Per-building seed and climate ride
	// as per-instance overrides, so all buildings share this one config
	// (validated once, behind a core.Shared handle).
	Base core.Config
	// MemBudgetBytes caps the live-heap bytes per building at
	// construction, as BytesPerBuilding computes them from this config;
	// New fails before building anything when the size exceeds it. 0
	// disables the check. Must be >= 0.
	MemBudgetBytes int64
	// SampleEvery enables trace recording on every k-th building
	// (indices 0, k, 2k, …). 0 records no traces anywhere — the fleet
	// default, worth ~2.7 MB/building of chunked series otherwise.
	// Requires Base.TracePeriod > 0 when set.
	SampleEvery int
	// SampleRetention bounds each sampled building's series to a
	// pre-allocated ring of the most recent n samples. 0 keeps unbounded
	// history (the single-building default).
	SampleRetention int
	// EpochTicks is the epoch length: shards synchronize (and the run
	// becomes cancellable) every EpochTicks ticks. 0 selects 512. The
	// epoch length never affects per-building results.
	EpochTicks int
	// Vary bounds the deterministic per-building parameter draws.
	Vary Variation
	// FaultPlan, when non-nil, supplies a fault plan per building (nil
	// return = fault-free). It must return an independent plan per call:
	// plans are armed on the building's own timeline and must not be
	// shared between buildings.
	FaultPlan func(building int, seed uint64) *fault.Plan `json:"-"`
}

// DefaultConfig returns an n-building fleet over the paper-calibrated
// building template with a tropical climate spread (outdoor 28–34 °C,
// dew 24–27 °C), up to two occupants per subspace, no trace recording,
// and a 128 KiB per-building memory budget.
func DefaultConfig(n int) Config {
	return Config{
		Buildings:      n,
		Seed:           1,
		Base:           core.DefaultConfig(),
		MemBudgetBytes: 128 << 10,
		Vary: Variation{
			OutdoorTempLoC: 28, OutdoorTempHiC: 34,
			OutdoorDewLoC: 24, OutdoorDewHiC: 27,
			MaxOccupants: 2,
		},
	}
}

// Validate checks the fleet configuration, including the fleet knobs'
// ranges: building count > 0, shard count in [1, N] (or 0 for auto), a
// non-negative memory budget, and a retention whose ring Go can allocate
// (trace.MaxRetention).
func (c Config) Validate() error {
	if c.Buildings <= 0 {
		return fmt.Errorf("fleet: Buildings must be > 0, got %d", c.Buildings)
	}
	if c.Shards < 0 {
		return fmt.Errorf("fleet: Shards must be >= 0 (0 = NumCPU), got %d", c.Shards)
	}
	if c.Shards > c.Buildings {
		return fmt.Errorf("fleet: Shards %d exceeds Buildings %d", c.Shards, c.Buildings)
	}
	if c.MemBudgetBytes < 0 {
		return fmt.Errorf("fleet: MemBudgetBytes must be >= 0, got %d", c.MemBudgetBytes)
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("fleet: SampleEvery must be >= 0, got %d", c.SampleEvery)
	}
	if c.SampleEvery > 0 && c.Base.TracePeriod <= 0 {
		return fmt.Errorf("fleet: SampleEvery %d needs Base.TracePeriod > 0 to record anything", c.SampleEvery)
	}
	if c.SampleRetention < 0 {
		return fmt.Errorf("fleet: SampleRetention must be >= 0, got %d", c.SampleRetention)
	}
	if c.SampleRetention > trace.MaxRetention {
		return fmt.Errorf("fleet: SampleRetention %d exceeds %d, the largest ring of samples Go can allocate",
			c.SampleRetention, trace.MaxRetention)
	}
	if c.EpochTicks < 0 {
		return fmt.Errorf("fleet: EpochTicks must be >= 0, got %d", c.EpochTicks)
	}
	if err := c.Vary.validate(); err != nil {
		return err
	}
	return c.Base.Validate()
}

// Live-heap bytes of one building at construction, GC-settled, for the
// DefaultConfig building template on a 64-bit host.
// TestBytesPerBuildingMatchesHeap pins both against a measurement of 64
// buildings, so a change that grows the building fails a test.
const (
	// buildingBytes is an untraced building: physics, sensor network
	// (with its per-tick buffers reserved), controllers and an empty
	// recorder.
	buildingBytes = 39_650
	// tracedBytes is what tracing adds before the first sample: the
	// core.TracedSeries series handles, without storage.
	tracedBytes = 3_600
)

// BytesPerBuilding returns the live-heap bytes one building of the fleet
// costs at construction, averaged over the fleet. Every building costs
// the untraced base. Each sampled building (indices 0, k, 2k, … for
// SampleEvery k) adds its traced series and, with a SampleRetention, the
// ring each series gets up front (trace.RingBytes). With unbounded
// retention a series holds no storage before its first sample, so the
// size counts none; each series then takes a 128 KiB chunk per 8,192
// samples. The base is the DefaultConfig template's building: a Base
// that turns on TrackExact or a FaultPlan adds per-building state the
// size does not count.
func (c Config) BytesPerBuilding() int64 {
	if c.Buildings <= 0 {
		return 0
	}
	size := int64(buildingBytes)
	if c.SampleEvery > 0 {
		n, k := uint64(c.Buildings), uint64(c.SampleEvery)
		sampled := (n-1)/k + 1
		traced := uint64(tracedBytes + core.TracedSeries*trace.RingBytes(c.SampleRetention))
		// The fleet's total can pass int64 at a large retention; its
		// share per building cannot, as sampled <= n.
		hi, lo := bits.Mul64(sampled, traced)
		share, _ := bits.Div64(hi, lo, n)
		size += int64(share)
	}
	return size
}

// sampled reports whether building i records traces.
func (c *Config) sampled(i int) bool {
	return c.SampleEvery > 0 && i%c.SampleEvery == 0
}

// BuildingParams is the deterministic parameterisation of one building:
// a pure function of (fleet seed, index) via ParamsFor, independent of
// shard count, worker scheduling, and every other building.
type BuildingParams struct {
	Index int
	// Seed drives every stochastic element of the building's simulation.
	Seed uint64
	// Climate reports whether OutdoorC/OutdoorDewC override the template
	// boundary condition.
	Climate               bool
	OutdoorC, OutdoorDewC float64
	// Occupants is the initial per-subspace occupancy.
	Occupants [thermal.NumZones]int
}

// Sub-stream tags for the per-building parameter draws. Each draw hashes
// (building seed, tag) so adding a tag never shifts the others.
const (
	tagOutdoorTemp = 1
	tagOutdoorDew  = 2
	tagOccupants   = 16 // ..16+NumZones
)

// unit maps (seed, tag) to a uniform draw in [0, 1) via the same
// splitmix64 finalizer that derives job seeds.
func unit(seed, tag uint64) float64 {
	return float64(runner.DeriveSeed(seed, tag)>>11) / (1 << 53)
}

// ParamsFor derives building i's parameters from the fleet seed.
func (c Config) ParamsFor(i int) BuildingParams {
	p := BuildingParams{Index: i, Seed: runner.DeriveSeed(c.Seed, uint64(i))}
	if v := c.Vary; v.climate() {
		p.Climate = true
		p.OutdoorC = v.OutdoorTempLoC + (v.OutdoorTempHiC-v.OutdoorTempLoC)*unit(p.Seed, tagOutdoorTemp)
		p.OutdoorDewC = v.OutdoorDewLoC + (v.OutdoorDewHiC-v.OutdoorDewLoC)*unit(p.Seed, tagOutdoorDew)
		// A dew point at or above the dry-bulb would start the run inside
		// fog; keep the boundary at least 1 K of depression.
		if p.OutdoorDewC > p.OutdoorC-1 {
			p.OutdoorDewC = p.OutdoorC - 1
		}
	}
	if max := c.Vary.MaxOccupants; max > 0 {
		for z := range p.Occupants {
			n := int(unit(p.Seed, tagOccupants+uint64(z)) * float64(max+1))
			if n > max {
				n = max
			}
			p.Occupants[z] = n
		}
	}
	return p
}
