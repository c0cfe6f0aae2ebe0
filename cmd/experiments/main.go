// Command experiments regenerates every table and figure of the paper's
// evaluation section (§V). With no flags it runs the full suite; use -fig
// to run a single experiment and -csv to emit the underlying series.
//
//	experiments -fig 10 -csv fig10.csv
//	experiments -fig all -hours 5
//	experiments -fig histreset -hours 2
//	experiments -fig all -parallel 4 -cpuprofile cpu.out
//
// Independent experiments fan out across a bounded worker pool (-parallel
// controls the width; 0 means NumCPU), Figures 12–15 share a single
// memoized scenario simulation, and Figure 11, the exergy audit and the
// supply sweep share the memoized steady-state trials. -cpuprofile /
// -memprofile capture pprof profiles of the run for tuning the runner.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"bubblezero/internal/experiments"
	"bubblezero/internal/report"
	"bubblezero/internal/runner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 10, 11, 12, 13, 14, 15, resilience, lifetime, exergy, ablations, histreset, fleet, all (fleet only when named: its summary reports host-dependent wall-clock throughput; histreset only when named, so that all keeps its output)")
		buildings  = flag.Int("buildings", 100, "fleet size for -fig fleet")
		shards     = flag.Int("shards", 0, "fleet worker count for -fig fleet (0 = NumCPU)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		hours      = flag.Float64("hours", 5, "networking-scenario length in simulated hours (figs 12-15)")
		csv        = flag.String("csv", "", "write the figure's underlying series as CSV to this file")
		mdPath     = flag.String("report", "", "write the full evaluation as a markdown report to this file")
		parallel   = flag.Int("parallel", 0, "worker count for independent experiments (0 = NumCPU)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	// A horizon that is not finite and positive converts to a zero or
	// negative Duration; reject it before any simulation starts.
	if math.IsNaN(*hours) || math.IsInf(*hours, 0) || *hours <= 0 {
		return fmt.Errorf("-hours must be finite and positive, got %v", *hours)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	suite := experiments.NewSuite(*parallel)
	d := time.Duration(*hours * float64(time.Hour))

	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			return err
		}
		if err := report.GenerateWith(ctx, suite, *seed, *hours, f); err != nil {
			f.Close()
			return fmt.Errorf("report: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("report written to", *mdPath)
		return nil
	}

	// Each figure renders to its own slot; with -fig all the jobs fan out
	// across the pool and print in the fixed figure order once all are
	// done. The suite runs each distinct simulation once: Figures 12–15
	// share one scenario, and 11, exergy and ablations share their trials.
	type sectionFn func(ctx context.Context) (string, error)
	sections := []struct {
		name string
		fn   sectionFn
	}{
		{"10", func(ctx context.Context) (string, error) {
			r, err := experiments.Fig10(ctx, *seed)
			if err != nil {
				return "", err
			}
			if *csv != "" && *fig == "10" {
				if err := writeCSV(*csv, r.WriteTable); err != nil {
					return "", err
				}
			}
			return r.Summary() + "\n", nil
		}},
		{"11", func(ctx context.Context) (string, error) {
			r, err := suite.Fig11(ctx, *seed)
			if err != nil {
				return "", err
			}
			return r.Summary() + "\n" + fmt.Sprintf(
				"  radiant %.1f W removed / %.1f W consumed (paper 964.8/213.4); "+
					"vent %.1f W / %.1f W (paper 213.2/75.6)\n",
				r.RadiantRemovedW, r.RadiantConsumedW, r.VentRemovedW, r.VentConsumedW), nil
		}},
		{"12", func(ctx context.Context) (string, error) {
			r, err := suite.Fig12(ctx, *seed, d, nil)
			if err != nil {
				return "", err
			}
			return r.Summary(), nil
		}},
		{"13", func(ctx context.Context) (string, error) {
			r, err := suite.Fig13(ctx, *seed, d)
			if err != nil {
				return "", err
			}
			return r.Summary() + "\n", nil
		}},
		{"14", func(ctx context.Context) (string, error) {
			r, err := suite.Fig14(ctx, *seed, d)
			if err != nil {
				return "", err
			}
			return r.Summary() + "\n", nil
		}},
		{"15", func(ctx context.Context) (string, error) {
			r, err := suite.Fig15(ctx, *seed, d)
			if err != nil {
				return "", err
			}
			return r.Summary() + "\n", nil
		}},
		{"resilience", func(ctx context.Context) (string, error) {
			r, err := suite.Resilience(ctx, *seed, nil)
			if err != nil {
				return "", err
			}
			if *csv != "" && *fig == "resilience" {
				if err := writeCSV(*csv, r.WriteTable); err != nil {
					return "", err
				}
			}
			return r.Summary() + "\n", nil
		}},
		{"lifetime", func(ctx context.Context) (string, error) {
			r, err := suite.Lifetime(ctx, *seed)
			if err != nil {
				return "", err
			}
			if *csv != "" && *fig == "lifetime" {
				if err := writeCSV(*csv, r.WriteTable); err != nil {
					return "", err
				}
			}
			return r.Summary() + "\n", nil
		}},
		{"fleet", func(ctx context.Context) (string, error) {
			r, err := experiments.FleetScale(ctx, *seed, *buildings, *shards, time.Hour)
			if err != nil {
				return "", err
			}
			if *csv != "" && *fig == "fleet" {
				if err := writeCSV(*csv, r.WriteTable); err != nil {
					return "", err
				}
			}
			return r.Summary(), nil
		}},
		{"exergy", func(ctx context.Context) (string, error) {
			r, err := suite.ExergyAudit(ctx, *seed)
			if err != nil {
				return "", err
			}
			return r.Summary(), nil
		}},
		{"ablations", func(ctx context.Context) (string, error) {
			pts, err := suite.AblationSupplyTemp(ctx, *seed, nil)
			if err != nil {
				return "", err
			}
			nc, err := suite.AblationNoCoupling(ctx, *seed)
			if err != nil {
				return "", err
			}
			ds, err := suite.AblationDesync(ctx, *seed, 30*time.Minute)
			if err != nil {
				return "", err
			}
			return experiments.SummarizeSupplyTemp(pts) + fmt.Sprintf(
				"Ablation: condensation guarded %.0f s vs unguarded %.0f s\n"+
					"Ablation: desync collisions %d (delivery %.4f) vs random %d (delivery %.4f)\n",
				nc.GuardedCondensationS, nc.UnguardedCondensationS,
				ds.WithDesync.Collided, ds.WithDesync.DeliveryRate(),
				ds.WithoutDesync.Collided, ds.WithoutDesync.DeliveryRate()), nil
		}},
		{"histreset", func(ctx context.Context) (string, error) {
			const every = 40 * time.Minute
			r, err := suite.AblationHistogramReset(ctx, *seed, d, every)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("Ablation: histogram reset every %v over %v: accuracy %.1f%% with reset, %.1f%% without\n",
				every, d, r.WithResetPct, r.WithoutResetPct), nil
		}},
	}

	// Workers take jobs in the report's submission order, not the printed
	// one (report.GenerateWith): Figure 12 first, since it simulates the
	// shared scenario and then fans its replay out across the pool; then
	// the sections that never touch the scenario, the exergy audit after
	// the ablations so that it finds Figure 11's trials cached instead of
	// waiting for them; Figures 13–15, which only read the scenario, last.
	submitRank := map[string]int{"12": -1, "exergy": 1, "13": 2, "14": 2, "15": 2}
	order := make([]int, len(sections))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return submitRank[sections[a].name] - submitRank[sections[b].name]
	})

	all := *fig == "all"
	outputs := make([]string, len(sections))
	jobs := make([]runner.Job, 0, len(sections))
	for _, i := range order {
		s := sections[i]
		if !all && *fig != s.name {
			continue
		}
		// The fleet section reports wall-clock throughput — a
		// host-dependent number that would break the byte-identical
		// -fig all diff across -parallel widths — so it only runs when
		// named explicitly. histreset runs only when named
		// too, so that -fig all keeps its bytes.
		if all && (s.name == "fleet" || s.name == "histreset") {
			continue
		}
		jobs = append(jobs, func(ctx context.Context) error {
			out, err := s.fn(ctx)
			if err != nil {
				return fmt.Errorf("fig %s: %w", s.name, err)
			}
			outputs[i] = out
			return nil
		})
	}
	if len(jobs) == 0 {
		return fmt.Errorf("unknown -fig %q", *fig)
	}
	if err := suite.Pool().Run(ctx, jobs...); err != nil {
		return err
	}
	for _, out := range outputs {
		fmt.Print(out)
	}
	return nil
}

func writeCSV(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
