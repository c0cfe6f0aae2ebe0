package experiments

import (
	"context"
	"time"

	"bubblezero/internal/runner"
)

// scenarioCacheEntries bounds the scenario memo: each retained scenario
// holds every recorded sample of a multi-hour run (~tens of MB at the
// five-hour horizon), so the cache keeps only the few most recent
// (seed, duration) keys. Evaluation suites touch exactly one key; seed
// sweeps cycle through the bound FIFO-style.
const scenarioCacheEntries = 4

// Suite bundles the concurrency substrate for the experiment battery: a
// bounded worker pool for fanning out independent runs and a singleflight
// scenario cache so every figure that replays the §V-C workload shares
// one simulation per (seed, duration).
//
// Results are deterministic at any pool width: jobs write into per-index
// slots, each simulation owns its RNG streams, and fleet aggregations
// iterate devices in sorted order.
type Suite struct {
	pool      *runner.Pool
	scenarios *runner.ScenarioCache[*NetScenario]
}

// NewSuite returns a suite with the given worker count (<= 0 selects
// NumCPU) and a fresh scenario cache.
func NewSuite(workers int) *Suite {
	return &Suite{
		pool:      runner.NewPool(workers),
		scenarios: runner.NewScenarioCache[*NetScenario](scenarioCacheEntries),
	}
}

// Pool returns the suite's worker pool.
func (s *Suite) Pool() *runner.Pool { return s.pool }

// NetScenario returns the memoized §V-C scenario for (seed, d), running
// the simulation at most once per key across all concurrent callers. The
// scenario is shared: callers must treat it as read-only.
func (s *Suite) NetScenario(ctx context.Context, seed uint64, d time.Duration) (*NetScenario, error) {
	return s.scenarios.Get(ctx, seed, d, RunNetScenario)
}

// CachedScenarios returns how many scenarios the suite currently retains.
func (s *Suite) CachedScenarios() int { return s.scenarios.Len() }

// PurgeScenarios drops every retained scenario, releasing their memory.
func (s *Suite) PurgeScenarios() { s.scenarios.Purge() }

// Fig12 replays the scenario's recorded sensor streams through schedulers
// of varying histogram size and scores each against the exact-clustering
// ground truth. The scenario is memoized and the per-N replays are fanned
// across the pool.
func (s *Suite) Fig12(ctx context.Context, seed uint64, d time.Duration, ns []int) (*Fig12Result, error) {
	if len(ns) == 0 {
		ns = []int{5, 10, 15, 20, 25, 30, 40, 50, 60, 70}
	}
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{Scenario: sc, Points: make([]Fig12Point, len(ns))}
	err = s.pool.ForEach(ctx, len(ns), func(_ context.Context, i int) error {
		p, err := fig12Point(sc, ns[i])
		if err != nil {
			return err
		}
		res.Points[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Fig13 runs (or reuses, via the scenario cache) the event workload and
// extracts the accuracy trajectory.
func (s *Suite) Fig13(ctx context.Context, seed uint64, d time.Duration) (*Fig13Result, error) {
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	return Fig13FromScenario(sc), nil
}

// Fig14 runs (or reuses, via the scenario cache) the event workload and
// extracts one device's adaptation behaviour.
func (s *Suite) Fig14(ctx context.Context, seed uint64, d time.Duration) (*Fig14Result, error) {
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	return Fig14FromScenario(sc), nil
}

// Fig15 runs (or reuses, via the scenario cache) the adaptive workload,
// extracts its T_snd distribution, runs the (uncached, one-hour)
// fixed-mode baseline to measure its drain rate, and projects battery
// lifetimes.
func (s *Suite) Fig15(ctx context.Context, seed uint64, d time.Duration) (*Fig15Result, error) {
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	return Fig15FromScenario(ctx, sc, seed)
}

// AblationSupplyTemp sweeps the radiant supply-water temperature,
// demonstrating the paper's central design argument: warmer water means
// less lift, less exergy, and higher COP — until the panels can no longer
// move enough heat. The per-temperature steady-state runs fan out across
// the pool; each run derives its own system, so results are independent
// of worker count.
func (s *Suite) AblationSupplyTemp(ctx context.Context, seed uint64, temps []float64) ([]SupplyTempPoint, error) {
	if len(temps) == 0 {
		temps = []float64{10, 14, 18, 21}
	}
	out := make([]SupplyTempPoint, len(temps))
	err := s.pool.ForEach(ctx, len(temps), func(ctx context.Context, i int) error {
		p, err := supplyTempPoint(ctx, seed, temps[i])
		if err != nil {
			return err
		}
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AblationNoCoupling runs the system with and without the condensation
// guard, the two arms concurrently. The decomposed design only works
// because the modules collaborate; removing the coupling wets the panels
// within minutes.
func (s *Suite) AblationNoCoupling(ctx context.Context, seed uint64) (*NoCouplingResult, error) {
	var res NoCouplingResult
	err := s.pool.Run(ctx,
		func(ctx context.Context) error {
			v, err := runNoCoupling(ctx, seed, false)
			res.GuardedCondensationS = v
			return err
		},
		func(ctx context.Context) error {
			v, err := runNoCoupling(ctx, seed, true)
			res.UnguardedCondensationS = v
			return err
		})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// AblationDesync measures collision counts with and without the AC
// schedule desynchronisation, running the desynchronised and
// random-offset systems concurrently.
func (s *Suite) AblationDesync(ctx context.Context, seed uint64, d time.Duration) (*DesyncResult, error) {
	var res DesyncResult
	err := s.pool.Run(ctx,
		func(ctx context.Context) error {
			st, err := runDesync(ctx, seed, d, true)
			res.WithDesync = st
			return err
		},
		func(ctx context.Context) error {
			st, err := runDesync(ctx, seed, d, false)
			res.WithoutDesync = st
			return err
		})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// AblationHistogramReset replays the cached scenario with and without a
// periodic histogram reset, the two replays in parallel. The paper resets
// U_i weekly "to eliminate approximation errors cumulated in the past
// week"; over the simulated horizon the effect is small but measurable.
func (s *Suite) AblationHistogramReset(ctx context.Context, seed uint64, d time.Duration, resetEvery time.Duration) (*HistogramResetResult, error) {
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	var res HistogramResetResult
	err = s.pool.Run(ctx,
		func(context.Context) error {
			v, err := replayHistogramReset(sc, resetEvery, true)
			res.WithResetPct = v
			return err
		},
		func(context.Context) error {
			v, err := replayHistogramReset(sc, resetEvery, false)
			res.WithoutResetPct = v
			return err
		})
	if err != nil {
		return nil, err
	}
	return &res, nil
}
