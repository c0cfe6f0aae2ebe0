package fleet

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/runner"
	"bubblezero/internal/thermal"
)

// defaultEpochTicks is the epoch length when Config.EpochTicks is 0. It
// only trades scheduling granularity (cancellation latency, how often
// events land) against per-epoch dispatch overhead; results are
// epoch-invariant because sim.Engine.RunTicks flushes the cadence wheel
// on every run exit.
const defaultEpochTicks = 512

// Fleet is N independent BubbleZERO buildings stepped in lockstep epochs
// by a bounded worker pool, whose workers claim the buildings one at a
// time.
//
//bzlint:guards evMu pendingEv,journal
type Fleet struct {
	cfg       Config
	buildings []building // index order, buildings[i] is building i
	pool      *runner.Pool
	workers   int

	epochTicks uint64
	step       time.Duration
	ticks      uint64 // ticks advanced so far
	// stepErr is the error that stopped an epoch or an event part way.
	// Buildings then stand at different ticks, or hold an event the
	// journal lacks, and ExportState refuses them.
	stepErr error

	// Live-mutation queue and journal (event.go). evMu guards both:
	// Apply may race RunTicks, which drains the queue at epoch
	// boundaries.
	evMu      sync.Mutex
	pendingEv []Event
	journal   []AppliedEvent
}

// building is one building of the fleet and the lock that orders its
// epochs and events against readers. The runner holds mu alone while it
// steps the building or applies an event to it; ViewBuilding holds it
// shared. A reader therefore waits for one building's epoch, not for the
// whole fleet's.
type building struct {
	mu  sync.RWMutex
	sys *core.System
}

// New validates cfg and instantiates the fleet's buildings in parallel.
// It fails before building anything when cfg's computed size per
// building (Config.BytesPerBuilding) exceeds cfg.MemBudgetBytes.
func New(ctx context.Context, cfg Config) (*Fleet, error) {
	f, quiet, sampled, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	f.buildings = make([]building, cfg.Buildings)
	// Buildings are independent, so construction parallelises across the
	// same pool that will step them. Each job writes only its own slot.
	if err := f.pool.ForEach(ctx, cfg.Buildings, func(_ context.Context, i int) error {
		sys, err := newBuilding(&cfg, quiet, sampled, i)
		if err != nil {
			return fmt.Errorf("fleet: building %d: %w", i, err)
		}
		f.buildings[i].sys = sys
		return nil
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// newFleet is what New and Restore do before they build a building: it
// validates cfg, checks its computed size against the budget, and builds
// the shared handles every building aliases. The fleet it returns holds
// no building yet.
func newFleet(cfg Config) (f *Fleet, quiet, sampled *core.Shared, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if size := cfg.BytesPerBuilding(); cfg.MemBudgetBytes > 0 && size > cfg.MemBudgetBytes {
		return nil, nil, nil, fmt.Errorf("fleet: %d buildings cost %d B/building live heap, over the %d B budget",
			cfg.Buildings, size, cfg.MemBudgetBytes)
	}
	workers := cfg.Shards
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, cfg.Buildings)
	epoch := uint64(cfg.EpochTicks)
	if epoch == 0 {
		epoch = defaultEpochTicks
	}

	if quiet, sampled, err = sharedHandles(cfg); err != nil {
		return nil, nil, nil, err
	}

	f = &Fleet{
		cfg:        cfg,
		pool:       runner.NewPool(workers),
		workers:    workers,
		epochTicks: epoch,
		step:       cfg.Base.Step,
	}
	return f, quiet, sampled, nil
}

// sharedHandles builds the one (or two) validated read-only config
// handles every building aliases: a quiet template with tracing disabled,
// and — only when sampling is on — a template with the Base trace period.
func sharedHandles(cfg Config) (quiet, sampled *core.Shared, err error) {
	quietCfg := cfg.Base
	quietCfg.TracePeriod = 0
	quiet, err = core.NewShared(quietCfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.SampleEvery > 0 {
		sampled, err = core.NewShared(cfg.Base)
		if err != nil {
			return nil, nil, err
		}
	}
	return quiet, sampled, nil
}

// newBuilding assembles building i exactly as Standalone does: shared
// template + the deterministic per-building parameterisation.
//
//bzlint:mutroute fleet.Apply construction: deterministic per-building parameterisation before the first tick
func newBuilding(cfg *Config, quiet, sampled *core.Shared, i int) (*core.System, error) {
	p := cfg.ParamsFor(i)
	opts := make([]core.Option, 0, 3)
	opts = append(opts, core.WithSeed(p.Seed))
	if p.Climate {
		opts = append(opts, core.WithOutdoor(p.OutdoorC, p.OutdoorDewC))
	}
	if cfg.FaultPlan != nil {
		if plan := cfg.FaultPlan(i, p.Seed); plan != nil {
			opts = append(opts, core.WithFaultPlan(plan))
		}
	}
	sh := quiet
	isSampled := cfg.sampled(i)
	if isSampled {
		sh = sampled
	}
	sys, err := sh.NewSystem(opts...)
	if err != nil {
		return nil, err
	}
	for z := 0; z < thermal.NumZones; z++ {
		if n := p.Occupants[z]; n > 0 {
			sys.Room().SetOccupants(thermal.ZoneID(z), n)
		}
	}
	if isSampled && cfg.SampleRetention > 0 {
		rec := sys.Recorder()
		for _, name := range rec.Names() {
			rec.Series(name).SetRetention(cfg.SampleRetention)
		}
	}
	return sys, nil
}

// Standalone assembles building i of the fleet described by cfg as a
// single System, outside any fleet. With the same cfg and i it is
// bit-identical to Fleet.Building(i) stepped the same number of ticks —
// the property the determinism tests pin.
func Standalone(cfg Config, i int) (*core.System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if i < 0 || i >= cfg.Buildings {
		return nil, fmt.Errorf("fleet: building index %d out of range [0, %d)", i, cfg.Buildings)
	}
	quiet, sampled, err := sharedHandles(cfg)
	if err != nil {
		return nil, err
	}
	return newBuilding(&cfg, quiet, sampled, i)
}

// step advances the building by `ticks` under its lock. The unlock is
// deferred, so a Step that panics leaves the building readable. This is
// the fleet hot path: everything it reaches must stay deterministic and
// allocation-free in steady state.
//
//bzlint:hotpath
func (b *building) step(ctx context.Context, ticks uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sys.Engine().RunTicks(ctx, ticks)
}

// update runs fn on the building under its lock, for a write between
// epochs. The unlock is deferred, as in step.
func (b *building) update(fn func(sys *core.System)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(b.sys)
}

// RunTicks advances every building by n ticks, in epochs of EpochTicks.
// Within an epoch the pool's workers claim the buildings one at a time,
// in the order claimOrder gives, and step each through the whole epoch;
// the workers rejoin only at epoch boundaries. A worker that waits on
// one building, for a reader or a slow step, holds up no other building.
// A building is stepped, and changed by an event, under its own lock, so
// ViewBuilding may read any building while RunTicks runs. Per-building
// results are independent of the worker count, the claim order and the
// epoch length.
func (f *Fleet) RunTicks(ctx context.Context, n uint64) error {
	for n > 0 {
		if err := f.drainEvents(); err != nil {
			return err
		}
		t := f.epochTicks
		if t > n {
			t = n
		}
		if err := f.pool.ForEach(ctx, len(f.buildings), func(ctx context.Context, j int) error {
			return f.buildings[f.claimOrder(j)].step(ctx, t)
		}); err != nil {
			f.stepErr = err
			return err
		}
		f.ticks += t
		n -= t
	}
	return nil
}

// claimOrder maps an epoch's j-th claim to the building it steps. The
// workers take turns at the claim counter, so consecutive claims run at
// the same time on different CPUs. claimOrder deals them out across
// Workers equal blocks of q = n/Workers buildings: claim j steps
// building (j mod Workers)·q + j/Workers, and the last n mod Workers
// claims step the last buildings in order. Buildings stepped at the
// same time are then q apart, where a shard partition put them. Index
// neighbours stepped at the same time cost a 64-building fleet's runner
// 8-9% of its rate (12-14% when one worker had built the fleet, which
// points at neighbours' objects sharing cache lines) and widened the
// spread of a live twin's rate from run to run (EXPERIMENTS.md, "Claim
// order"). One worker claims in index order.
func (f *Fleet) claimOrder(j int) int {
	w := f.workers
	q := len(f.buildings) / w
	if j >= q*w {
		return j
	}
	return j%w*q + j/w
}

// Run advances every building by d of simulated time (truncated to whole
// ticks, matching System.Run).
func (f *Fleet) Run(ctx context.Context, d time.Duration) error {
	return f.RunTicks(ctx, uint64(d/f.step))
}

// Shards returns the effective worker count: Config.Shards, or NumCPU
// for 0, at most one per building.
func (f *Fleet) Shards() int { return f.workers }

// Ticks returns how many ticks every building has advanced.
func (f *Fleet) Ticks() uint64 { return f.ticks }

// Building returns building i, to use between RunTicks calls. While
// RunTicks runs on another goroutine, read a building only through
// ViewBuilding.
func (f *Fleet) Building(i int) *core.System { return f.buildings[i].sys }

// ViewBuilding runs fn on building i under the building's read lock, and
// may do so while RunTicks runs on another goroutine: fn then waits for
// the building's epoch in progress, if any, and sees it between two
// epochs while other buildings stand mid-epoch. Readers of one building
// share its lock, so fn must write nothing: not the building (a mutation
// bypasses the event journal and breaks snapshot replay), and not a memo
// either — Recorder.Series, for one, caches its last lookup.
func (f *Fleet) ViewBuilding(i int, fn func(sys *core.System) error) error {
	if i < 0 || i >= len(f.buildings) {
		return fmt.Errorf("fleet: building %d out of range [0, %d)", i, len(f.buildings))
	}
	b := &f.buildings[i]
	b.mu.RLock()
	defer b.mu.RUnlock()
	return fn(b.sys)
}

// BytesPerBuilding returns the fleet's computed live-heap size per
// building at construction, Config.BytesPerBuilding of its config. It is
// computed, not measured: construction forces no garbage collection.
func (f *Fleet) BytesPerBuilding() int64 { return f.cfg.BytesPerBuilding() }

// Stats is a fleet-wide aggregate, accumulated in building-index order so
// the float sums are deterministic.
type Stats struct {
	Buildings int
	TicksRun  uint64
	// Room air temperature across the fleet (per-building averages).
	AvgTempC, MinTempC, MaxTempC float64
	// Average per-building dew point.
	AvgDewC float64
	// Mean whole-system COP over buildings with accumulated duty.
	AvgCOP     float64
	COPSamples int
	// Total condensation exposure across the fleet.
	CondensationS float64
}

// Stats aggregates the fleet's current state deterministically.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Buildings: len(f.buildings),
		TicksRun:  f.ticks,
		MinTempC:  math.Inf(1),
		MaxTempC:  math.Inf(-1),
	}
	var sumT, sumDew, sumCOP float64
	for i := range f.buildings {
		sys := f.buildings[i].sys
		t := sys.Room().AverageT()
		sumT += t
		sumDew += sys.Room().AverageDewPoint()
		if t < st.MinTempC {
			st.MinTempC = t
		}
		if t > st.MaxTempC {
			st.MaxTempC = t
		}
		if cop := sys.COPTotal().Value(); !math.IsNaN(cop) && !math.IsInf(cop, 0) {
			sumCOP += cop
			st.COPSamples++
		}
		st.CondensationS += sys.CondensationSeconds()
	}
	n := float64(len(f.buildings))
	st.AvgTempC = sumT / n
	st.AvgDewC = sumDew / n
	if st.COPSamples > 0 {
		st.AvgCOP = sumCOP / float64(st.COPSamples)
	}
	return st
}
