package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fault"
)

// The resilience experiment: a matrix of fault type × severity injected
// into the settled system, measuring how far the control decomposition
// lets the room drift and how fast it comes back. Every case follows the
// same clock: 60 minutes of fault-free settling, the fault window, and
// observation until the 120-minute mark. All cases are independent and
// deterministic per seed, so the matrix fans out across the worker pool.

// resilienceSettle is the fault-free settling period before injection.
const resilienceSettle = 60 * time.Minute

// resilienceHorizon is the total simulated length of every case.
const resilienceHorizon = 120 * time.Minute

// ResilienceCase names one cell of the fault matrix.
type ResilienceCase struct {
	// Name is the stable case identifier (kind-severity).
	Name string
	// Plan is the fault schedule, offsets relative to run start.
	Plan *fault.Plan
	// ClearAt is the offset at which the last fault clears (injection
	// offset for permanent faults), the origin for recovery timing.
	ClearAt time.Duration
}

// ResilienceMatrix returns the default fault type × severity matrix.
func ResilienceMatrix() []ResilienceCase {
	at := resilienceSettle
	return []ResilienceCase{
		{"burst-loss-0.5", fault.MustPlan(fault.BurstLoss(at, 15*time.Minute, 0.5)), at + 15*time.Minute},
		{"burst-loss-0.9", fault.MustPlan(fault.BurstLoss(at, 15*time.Minute, 0.9)), at + 15*time.Minute},
		{"jam-5min", fault.MustPlan(fault.Jam(at, 5*time.Minute)), at + 5*time.Minute},
		{"jam-15min", fault.MustPlan(fault.Jam(at, 15*time.Minute)), at + 15*time.Minute},
		{"stuck-temp-2", fault.MustPlan(fault.SensorStuck(at, 15*time.Minute, "bt-temp-2")), at + 15*time.Minute},
		{"drift-temp-2", fault.MustPlan(fault.SensorDrift(at, 15*time.Minute, "bt-temp-2", -0.005)), at + 15*time.Minute},
		{"paneldew-1-offline", fault.MustPlan(fault.MoteOffline(at, 15*time.Minute, "bt-paneldew-1")), at + 15*time.Minute},
		{"chiller-trip-radiant", fault.MustPlan(fault.ChillerTrip(at, 10*time.Minute, fault.LoopRadiant)), at + 10*time.Minute},
		{"chiller-trip-vent", fault.MustPlan(fault.ChillerTrip(at, 10*time.Minute, fault.LoopVent)), at + 10*time.Minute},
		{"pump-degrade-mild", fault.MustPlan(fault.PumpDegrade(at, 15*time.Minute, fault.LoopRadiant, 0.7)), at + 15*time.Minute},
		{"pump-degrade-severe", fault.MustPlan(fault.PumpDegrade(at, 15*time.Minute, fault.LoopRadiant, 0.3)), at + 15*time.Minute},
	}
}

// ResilienceOutcome is one case's measured behaviour.
type ResilienceOutcome struct {
	// Name echoes the case name.
	Name string
	// WorstTempDevK / WorstDewDevK are the largest deviations of the room
	// averages from the 25 °C / 18 °C-dew targets from injection onward.
	WorstTempDevK, WorstDewDevK float64
	// CondensationS is cumulative wet-panel time across the whole run —
	// the safety property every fault must leave bounded.
	CondensationS float64
	// RecoveredMin is the time from fault clearance until the room
	// averages re-enter the target band (within 0.4 K / 0.5 K-dew) and
	// stay for the rest of the run; 0 when the band was never left after
	// clearance, -1 when it was never re-entered.
	RecoveredMin float64
	// DegradeTransitions counts watchdog state-machine edges — non-zero
	// exactly when the fault made a consumed input stale.
	DegradeTransitions int
	// FinalTempC / FinalDewC are the end-of-run room averages.
	FinalTempC, FinalDewC float64
}

// ResilienceResult is the full matrix run.
type ResilienceResult struct {
	Seed     uint64
	Outcomes []ResilienceOutcome
}

// runResilienceCase executes one matrix cell.
func runResilienceCase(ctx context.Context, seed uint64, rc ResilienceCase) (ResilienceOutcome, error) {
	out := ResilienceOutcome{Name: rc.Name}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	sys, err := core.NewSystem(cfg, core.WithFaultPlan(rc.Plan))
	if err != nil {
		return out, err
	}
	start := sys.Now()
	if err := sys.Run(ctx, resilienceHorizon); err != nil {
		return out, err
	}
	out.CondensationS = sys.CondensationSeconds()
	out.FinalTempC = sys.Room().AverageT()
	out.FinalDewC = sys.Room().AverageDewPoint()
	out.DegradeTransitions = sys.Degradation().Transitions

	injected := start.Add(resilienceSettle)
	cleared := start.Add(rc.ClearAt)
	temp := sys.Recorder().Series("temp.avg")
	dew := sys.Recorder().Series("dew.avg")
	for _, p := range temp.Points() {
		if p.At.Before(injected) {
			continue
		}
		if d := math.Abs(p.Value - 25); d > out.WorstTempDevK {
			out.WorstTempDevK = d
		}
	}
	for _, p := range dew.Points() {
		if p.At.Before(injected) {
			continue
		}
		if d := math.Abs(p.Value - 18); d > out.WorstDewDevK {
			out.WorstDewDevK = d
		}
	}

	// Recovery: the last sample after clearance found outside the band
	// marks how long the fault's effects lingered.
	inBand := func(tempC, dewC float64) bool {
		return math.Abs(tempC-25) <= 0.4 && dewC <= 18.5
	}
	lastOut := time.Time{}
	tempPts, dewPts := temp.Points(), dew.Points()
	for i := range tempPts {
		p := tempPts[i]
		if p.At.Before(cleared) {
			continue
		}
		if !inBand(p.Value, dewPts[i].Value) {
			lastOut = p.At
		}
	}
	switch {
	case lastOut.IsZero():
		out.RecoveredMin = 0
	case lastOut.After(start.Add(resilienceHorizon - 2*time.Minute)):
		out.RecoveredMin = -1 // still out of band at the end of the run
	default:
		out.RecoveredMin = lastOut.Sub(cleared).Minutes()
	}
	return out, nil
}

// Resilience runs the fault matrix, one system per case, fanned across
// the suite's pool.
func (s *Suite) Resilience(ctx context.Context, seed uint64, cases []ResilienceCase) (*ResilienceResult, error) {
	if len(cases) == 0 {
		cases = ResilienceMatrix()
	}
	res := &ResilienceResult{Seed: seed, Outcomes: make([]ResilienceOutcome, len(cases))}
	err := s.pool.ForEach(ctx, len(cases), func(ctx context.Context, i int) error {
		out, err := runResilienceCase(ctx, seed, cases[i])
		if err != nil {
			return err
		}
		res.Outcomes[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// WriteTable renders the matrix as a markdown-style table.
func (r *ResilienceResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-22s %9s %9s %8s %8s %6s\n",
		"case", "worstT(K)", "worstDew", "cond(s)", "rec(min)", "edges"); err != nil {
		return err
	}
	for _, o := range r.Outcomes {
		rec := fmt.Sprintf("%.1f", o.RecoveredMin)
		if o.RecoveredMin < 0 {
			rec = "never"
		}
		if _, err := fmt.Fprintf(w, "%-22s %9.2f %9.2f %8.0f %8s %6d\n",
			o.Name, o.WorstTempDevK, o.WorstDewDevK, o.CondensationS, rec, o.DegradeTransitions); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders the headline: worst case by dew deviation and the
// safety bound.
func (r *ResilienceResult) Summary() string {
	worst, maxDew, maxCond := "", 0.0, 0.0
	recovered := 0
	for _, o := range r.Outcomes {
		if o.WorstDewDevK > maxDew {
			worst, maxDew = o.Name, o.WorstDewDevK
		}
		if o.CondensationS > maxCond {
			maxCond = o.CondensationS
		}
		if o.RecoveredMin >= 0 {
			recovered++
		}
	}
	return fmt.Sprintf("Resilience: %d/%d cases recovered, worst dew excursion %.2f K (%s), max condensation %.0f s",
		recovered, len(r.Outcomes), maxDew, worst, maxCond)
}
