package experiments

import (
	"context"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/energy"
	"bubblezero/internal/runner"
)

// scenarioCacheEntries bounds the scenario memo: each retained scenario
// holds every recorded sample of a multi-hour run (~tens of MB at the
// five-hour horizon), so the cache keeps only the few most recent
// (seed, duration) keys. Evaluation suites touch exactly one key; seed
// sweeps cycle through the bound FIFO-style.
const scenarioCacheEntries = 4

// Suite bundles the concurrency substrate for the experiment battery: a
// bounded worker pool for fanning out independent runs and singleflight
// caches so every figure runs each distinct simulation once. The §V-C
// scenario is shared per (seed, duration) by Figures 12–15; the
// steady-state trial is shared per (seed, radiant supply temperature) by
// Figure 11, the exergy audit and the supply sweep, whose 18 °C point is
// Figure 11's trial; and the AirCon baseline is shared per seed by Figure
// 11 and the exergy audit.
//
// Results are deterministic at any pool width: jobs write into per-index
// slots, each simulation owns its RNG streams, and fleet aggregations
// iterate devices in sorted order.
type Suite struct {
	pool      *runner.Pool
	scenarios *runner.Cache[runner.ScenarioKey, *NetScenario]
	// steady and airCon hold a few floats per trial, so they keep every
	// key.
	steady *runner.Cache[steadyKey, steadyTrial]
	airCon *runner.Cache[uint64, energy.COP]
}

// steadyKey identifies one steady-state trial.
type steadyKey struct {
	seed      uint64
	setpointC float64
}

// NewSuite returns a suite with the given worker count (<= 0 selects
// NumCPU) and fresh caches.
func NewSuite(workers int) *Suite {
	return &Suite{
		pool:      runner.NewPool(workers),
		scenarios: runner.NewCache[runner.ScenarioKey, *NetScenario](scenarioCacheEntries),
		steady:    runner.NewCache[steadyKey, steadyTrial](0),
		airCon:    runner.NewCache[uint64, energy.COP](0),
	}
}

// Pool returns the suite's worker pool.
func (s *Suite) Pool() *runner.Pool { return s.pool }

// NetScenario returns the memoized §V-C scenario for (seed, d), running
// the simulation at most once per key across all concurrent callers. The
// scenario is shared: callers must treat it as read-only.
func (s *Suite) NetScenario(ctx context.Context, seed uint64, d time.Duration) (*NetScenario, error) {
	return s.scenarios.Do(ctx, runner.ScenarioKey{Seed: seed, Duration: d}, func(ctx context.Context) (*NetScenario, error) {
		return RunNetScenario(ctx, seed, d)
	})
}

// steadyTrial returns the memoized steady-state trial at the given radiant
// supply temperature, running it at most once per (seed, setpointC).
func (s *Suite) steadyTrial(ctx context.Context, seed uint64, setpointC float64) (steadyTrial, error) {
	return s.steady.Do(ctx, steadyKey{seed: seed, setpointC: setpointC}, func(ctx context.Context) (steadyTrial, error) {
		return runSteadyTrial(ctx, seed, setpointC)
	})
}

// steadyAndAirCon returns Figure 11's two memoized trials, BubbleZERO at
// its default supply temperature and the AirCon baseline, running any
// that is not cached concurrently on the pool.
func (s *Suite) steadyAndAirCon(ctx context.Context, seed uint64) (bz steadyTrial, airCon energy.COP, err error) {
	err = s.pool.Run(ctx,
		func(ctx context.Context) (err error) {
			bz, err = s.steadyTrial(ctx, seed, core.DefaultConfig().RadiantSetpointC)
			return err
		},
		func(ctx context.Context) (err error) {
			airCon, err = s.airCon.Do(ctx, seed, func(ctx context.Context) (energy.COP, error) {
				return runAirConTrial(ctx, seed)
			})
			return err
		})
	return bz, airCon, err
}

// Fig11 compares the COP of BubbleZERO, its two modules and the AirCon
// baseline over one steady hour. Both trials are memoized.
func (s *Suite) Fig11(ctx context.Context, seed uint64) (*Fig11Result, error) {
	bz, airCon, err := s.steadyAndAirCon(ctx, seed)
	if err != nil {
		return nil, err
	}
	return fig11FromTrials(bz, airCon), nil
}

// ExergyAudit accounts for the exergy flows of Figure 11's two trials,
// which it shares through the suite's caches.
func (s *Suite) ExergyAudit(ctx context.Context, seed uint64) (*ExergyAuditResult, error) {
	bz, airCon, err := s.steadyAndAirCon(ctx, seed)
	if err != nil {
		return nil, err
	}
	return exergyAuditFromTrials(bz, airCon), nil
}

// Fig12 replays the scenario's recorded sensor streams through schedulers
// of varying histogram size and scores each against the exact-clustering
// ground truth. The scenario is memoized; each device's stream is replayed
// once for every size, starting from the ground truth the scenario's mote
// recorded, and the devices are fanned across the pool.
func (s *Suite) Fig12(ctx context.Context, seed uint64, d time.Duration, ns []int) (*Fig12Result, error) {
	if len(ns) == 0 {
		ns = []int{5, 10, 15, 20, 25, 30, 40, 50, 60, 70}
	}
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	points, err := fig12Points(ctx, s.pool, sc, ns)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{Scenario: sc, Points: points}, nil
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
// move enough heat. Each point is the suite's memoized steady trial at
// that temperature, so the 18 °C point is Figure 11's trial; the trials
// not yet cached fan out across the pool.
func (s *Suite) AblationSupplyTemp(ctx context.Context, seed uint64, temps []float64) ([]SupplyTempPoint, error) {
	if len(temps) == 0 {
		temps = []float64{10, 14, 18, 21}
	}
	out := make([]SupplyTempPoint, len(temps))
	err := s.pool.ForEach(ctx, len(temps), func(ctx context.Context, i int) error {
		tr, err := s.steadyTrial(ctx, seed, temps[i])
		if err != nil {
			return err
		}
		out[i] = supplyTempPoint(temps[i], tr)
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
