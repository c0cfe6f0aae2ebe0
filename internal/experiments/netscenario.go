package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"bubblezero/internal/adaptive"
	"bubblezero/internal/core"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
	"bubblezero/internal/trace"
	"bubblezero/internal/wsn"
)

// NetScenario is the shared workload behind Figures 12–15: the paper
// re-launches BubbleZERO for five hours and triggers external events
// (door and window openings) about every 30 minutes, logging every
// device's readings, transmission periods, and ground truth (§V-C).
type NetScenario struct {
	Start    time.Time
	Duration time.Duration
	// EventTimes are the disturbance instants (alternating door/window).
	EventTimes []time.Time
	// DoorEvents marks which events were door openings (affect
	// subspace-1) versus window openings (subspace-3).
	DoorEvents []bool

	// Readings are the raw sampled values per device, in sample order —
	// the replay input for Figure 12's histogram-size sweep.
	Readings map[string][]float64
	// TsplS is each device's sampling period.
	TsplS map[string]float64
	// GroundTruth is each device's exact-clustering ground truth: every
	// threshold its mote's N = 40 scheduler took from its exact clusterer
	// (adaptive.Scheduler.ExactThresholds). It depends only on Readings and
	// the scheduler window, so a replay of Readings starts from it
	// (Figure 12).
	GroundTruth map[string][]adaptive.ExactThreshold
	// Tsnd records the transmission period in effect at every sampling
	// instant per device.
	Tsnd map[string]*trace.Series
	// Transitions are the instants each device flagged a transition.
	Transitions map[string][]time.Time
	// Accuracy is the fleet-average rolling decision accuracy, sampled
	// every five minutes (Figure 13).
	Accuracy *trace.Series
	// VarMaxStableAt / VarMinStableAt are the fleet-median instants after
	// which each device's histogram range bound stopped moving (Figure 13
	// discussion: var_max stabilises after ≈1.5 h, var_min after ≈140 s).
	VarMaxStableAt, VarMinStableAt time.Duration
	// DrainJ is each battery device's total energy use over the run.
	DrainJ map[string]float64
	// SteadyDrainJ is the drain excluding the pull-down hour, over
	// SteadyElapsed — the basis for lifetime projection (the paper
	// projects from steady operation with events every ≈30 min).
	SteadyDrainJ  map[string]float64
	SteadyElapsed time.Duration
	// NetStats are the medium counters at the end of the run.
	NetStats wsn.Stats
}

// RunNetScenario executes the §V-C workload for the given duration. Every
// call simulates from scratch; use Suite.NetScenario for the memoized
// path shared by Figures 12–15. The returned scenario is immutable once
// returned and safe to read from concurrent goroutines.
func RunNetScenario(ctx context.Context, seed uint64, d time.Duration) (*NetScenario, error) {
	if d <= 0 {
		return nil, fmt.Errorf("experiments: scenario duration must be positive, got %v", d)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.TrackExact = true
	cfg.TracePeriod = 0 // the scenario keeps its own traces
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}

	sc := &NetScenario{
		Start:        sys.Now(),
		Duration:     d,
		Readings:     make(map[string][]float64),
		TsplS:        make(map[string]float64),
		GroundTruth:  make(map[string][]adaptive.ExactThreshold),
		Tsnd:         make(map[string]*trace.Series),
		Transitions:  make(map[string][]time.Time),
		Accuracy:     trace.NewRecorder().Series("accuracy"),
		DrainJ:       make(map[string]float64),
		SteadyDrainJ: make(map[string]float64),
	}

	// External events every ~30 minutes, cycling through the paper's
	// §IV-B repertoire: "opening door, opening window, occupant density
	// varying, occupant transition between different rooms". Door and
	// window alternate in even slots (they anchor the Figure 14 detection
	// delays); occupancy events fill the odd slots so temperature and CO₂
	// motes see real dynamics too.
	occupiedZone := -1
	idx := 0
	for at := 30 * time.Minute; at < d; at += 30 * time.Minute {
		when := sc.Start.Add(at)
		switch idx % 4 {
		case 0:
			sc.EventTimes = append(sc.EventTimes, when)
			sc.DoorEvents = append(sc.DoorEvents, true)
			sys.OpenDoorAt(when, 30*time.Second)
		case 2:
			sc.EventTimes = append(sc.EventTimes, when)
			sc.DoorEvents = append(sc.DoorEvents, false)
			sys.OpenWindowAt(when, 30*time.Second)
		case 1:
			// Occupant density varies: three people arrive in (or leave)
			// a subspace.
			zone := thermal.ZoneID((idx / 4) % thermal.NumZones)
			if occupiedZone < 0 {
				sys.SetOccupantsAt(when, zone, 3)
				occupiedZone = int(zone)
			} else {
				sys.SetOccupantsAt(when, thermal.ZoneID(occupiedZone), 0)
				occupiedZone = -1
			}
		case 3:
			// Occupant transition between rooms.
			if occupiedZone >= 0 {
				next := (occupiedZone + 1) % thermal.NumZones
				sys.SetOccupantsAt(when, thermal.ZoneID(occupiedZone), 0)
				sys.SetOccupantsAt(when, thermal.ZoneID(next), 3)
				occupiedZone = next
			}
		}
		idx++
	}

	// Per-device hooks. The hooks and the per-tick probe index their state
	// by position in one device list; the ID-keyed maps are filled once at
	// the end.
	engine := sys.Engine()
	devices := sys.Devices()
	readings := make([][]float64, len(devices))
	transitions := make([][]time.Time, len(devices))
	for i, dev := range devices {
		id := string(dev.Node().ID())
		sc.TsplS[id] = dev.Scheduler().Config().TsplS
		tsnd := trace.NewRecorder().Series("tsnd." + id)
		sc.Tsnd[id] = tsnd
		dev.OnSample(func(value, tsndS float64, transition bool) {
			readings[i] = append(readings[i], value)
			now := engine.Clock().Now()
			_ = tsnd.Append(now, tsndS)
			if transition {
				transitions[i] = append(transitions[i], now)
			}
		})
	}

	// Fleet accuracy sampling and histogram-range stability tracking.
	ranges := make([]rangeTrack, len(devices))
	var sinceAcc float64
	engine.Register(sim.ComponentFunc{ID: "scenario.probe", Fn: func(env *sim.Env) {
		for i, dev := range devices {
			lo, hi, ok := dev.Scheduler().Histogram().Range()
			if !ok {
				continue
			}
			r := &ranges[i]
			//bzlint:allow floateq range-change detection compares stored bounds, copied not recomputed
			if !r.seen || r.lo != lo {
				r.minChange = env.Elapsed()
			}
			//bzlint:allow floateq range-change detection compares stored bounds, copied not recomputed
			if !r.seen || r.hi != hi {
				r.maxChange = env.Elapsed()
			}
			r.lo, r.hi, r.seen = lo, hi, true
		}
		sinceAcc += env.Dt()
		if sinceAcc >= 300 {
			sinceAcc = 0
			var sum float64
			n := 0
			for _, dev := range devices {
				if frac, win := dev.Scheduler().RecentAccuracy(); win > 0 {
					sum += frac
					n++
				}
			}
			if n > 0 {
				_ = sc.Accuracy.Append(env.Now(), sum/float64(n))
			}
		}
	}})

	// Boot period: run the pull-down hour (or half the horizon for short
	// runs), then measure steady drain over the remainder.
	boot := time.Hour
	if boot > d/2 {
		boot = d / 2
	}
	if err := sys.Run(ctx, boot); err != nil {
		return nil, err
	}
	bootDrain := make([]float64, len(devices))
	for i, dev := range devices {
		bootDrain[i] = dev.Node().Battery().UsedJ()
	}
	if err := sys.Run(ctx, d-boot); err != nil {
		return nil, err
	}
	sc.SteadyElapsed = d - boot

	var minChanges, maxChanges []time.Duration
	for i, dev := range devices {
		id := string(dev.Node().ID())
		sc.DrainJ[id] = dev.Node().Battery().UsedJ()
		sc.SteadyDrainJ[id] = sc.DrainJ[id] - bootDrain[i]
		if len(readings[i]) > 0 {
			sc.Readings[id] = readings[i]
		}
		if truth := dev.Scheduler().ExactThresholds(); len(truth) > 0 {
			sc.GroundTruth[id] = truth
		}
		if len(transitions[i]) > 0 {
			sc.Transitions[id] = transitions[i]
		}
		if ranges[i].seen {
			minChanges = append(minChanges, ranges[i].minChange)
			maxChanges = append(maxChanges, ranges[i].maxChange)
		}
	}
	sc.VarMinStableAt = medianDuration(minChanges)
	sc.VarMaxStableAt = medianDuration(maxChanges)
	sc.NetStats = sys.Network().Stats()
	return sc, nil
}

// rangeTrack follows one device's histogram range: the last bounds seen
// and the elapsed time at which each bound last moved.
type rangeTrack struct {
	lo, hi               float64
	seen                 bool
	minChange, maxChange time.Duration
}

// medianDuration returns the median of ds, sorting it in place (0 when
// empty).
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// sortedKeys returns the map's keys in sorted order. Fleet aggregations
// iterate devices in this order so floating-point accumulation is
// bit-identical run to run — Go's randomized map order would otherwise
// reorder the additions and perturb the last bits.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//bzlint:allow determinism keys are sorted below, so iteration order is immaterial
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AllTsndSamples flattens every device's transmission-period samples —
// the Figure 15 CDF population.
func (sc *NetScenario) AllTsndSamples() []float64 {
	var out []float64
	for _, id := range sortedKeys(sc.Tsnd) {
		for _, p := range sc.Tsnd[id].Points() {
			out = append(out, p.Value)
		}
	}
	return out
}

// MeanTsndS is the fleet-mean transmission period.
func (sc *NetScenario) MeanTsndS() float64 {
	var sum float64
	n := 0
	for _, id := range sortedKeys(sc.Tsnd) {
		st := sc.Tsnd[id].Stats()
		sum += st.Mean * float64(st.N)
		n += st.N
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// DeviceForEvent maps a disturbance to the humidity mote that observes it
// most directly: door events hit subspace-1, window events subspace-3.
func DeviceForEvent(isDoor bool) string {
	if isDoor {
		return "bt-hum-1"
	}
	return "bt-hum-3"
}

// String summarises the scenario.
func (sc *NetScenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "net scenario: %v, %d events, mean Tsnd %.1fs, delivery %.3f",
		sc.Duration, len(sc.EventTimes), sc.MeanTsndS(), sc.NetStats.DeliveryRate())
	return b.String()
}
