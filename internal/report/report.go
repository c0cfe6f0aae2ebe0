package report

import (
	"context"
	"fmt"
	"io"
	"time"

	"bubblezero/internal/experiments"
	"bubblezero/internal/runner"
)

// GenerateWith runs the full evaluation on suite and writes a markdown
// report: every figure's headline numbers next to the paper's, with ASCII
// charts of the key series. hours controls the networking-scenario length
// (the paper uses five). Sections are computed concurrently on the
// suite's pool — Figures 12–15 share a single memoized scenario
// simulation — and written in the fixed section order. The caller's suite
// sets the worker count and the scenario-cache lifetime.
func GenerateWith(ctx context.Context, suite *experiments.Suite, seed uint64, hours float64, w io.Writer) error {
	d := time.Duration(hours * float64(time.Hour))

	// Phase 1: compute every section concurrently. Each job writes its own
	// result slot; the scenario cache deduplicates the Figures 12–15
	// workload down to one simulation.
	var (
		fig10 *experiments.Fig10Result
		fig11 *experiments.Fig11Result
		fig12 *experiments.Fig12Result
		fig13 *experiments.Fig13Result
		fig14 *experiments.Fig14Result
		fig15 *experiments.Fig15Result
		audit *experiments.ExergyAuditResult
		sweep []experiments.SupplyTempPoint
		nc    *experiments.NoCouplingResult
		ds    *experiments.DesyncResult
	)
	section := func(name string, fn func(ctx context.Context) error) runner.Job {
		return func(ctx context.Context) error {
			if err := fn(ctx); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			return nil
		}
	}
	err := suite.Pool().Run(ctx,
		section("fig10", func(ctx context.Context) (err error) {
			fig10, err = experiments.Fig10(ctx, seed)
			return
		}),
		section("fig11", func(ctx context.Context) (err error) {
			fig11, err = experiments.Fig11(ctx, seed)
			return
		}),
		section("fig12", func(ctx context.Context) (err error) {
			fig12, err = suite.Fig12(ctx, seed, d, nil)
			return
		}),
		section("fig13", func(ctx context.Context) (err error) {
			fig13, err = suite.Fig13(ctx, seed, d)
			return
		}),
		section("fig14", func(ctx context.Context) (err error) {
			fig14, err = suite.Fig14(ctx, seed, d)
			return
		}),
		section("fig15", func(ctx context.Context) (err error) {
			fig15, err = suite.Fig15(ctx, seed, d)
			return
		}),
		section("exergy audit", func(ctx context.Context) (err error) {
			audit, err = experiments.ExergyAudit(ctx, seed)
			return
		}),
		section("supply sweep", func(ctx context.Context) (err error) {
			sweep, err = suite.AblationSupplyTemp(ctx, seed, nil)
			return
		}),
		section("no-coupling", func(ctx context.Context) (err error) {
			nc, err = suite.AblationNoCoupling(ctx, seed)
			return
		}),
		section("desync", func(ctx context.Context) (err error) {
			ds, err = suite.AblationDesync(ctx, seed, 30*time.Minute)
			return
		}),
	)
	if err != nil {
		return err
	}

	// Phase 2: write the sections in the fixed report order.
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("# BubbleZERO — regenerated evaluation (seed %d)\n\n", seed); err != nil {
		return err
	}
	if err := p("## Figure 10 — overall HVAC performance\n\n%s\n\n", fig10.Summary()); err != nil {
		return err
	}
	if err := p("```\n%s```\n\n```\n%s```\n\n",
		Chart(fig10.Recorder.Series("temp.avg"), 72, 10),
		Chart(fig10.Recorder.Series("dew.avg"), 72, 10)); err != nil {
		return err
	}
	if err := p("## Figure 11 — energy efficiency (COP)\n\n%s\n\n```\n%s```\n\n",
		fig11.Summary(),
		BarChart(
			[]string{"AirCon", "Bubble-C", "Bubble-V", "BubbleZERO"},
			[]float64{fig11.AirCon, fig11.BubbleC, fig11.BubbleV, fig11.BubbleZERO},
			48)); err != nil {
		return err
	}
	if err := p("## Figure 12 — choosing the right N\n\n```\n%s```\n\n", fig12.Summary()); err != nil {
		return err
	}
	if err := p("## Figure 13 — accuracy as time elapses\n\n%s\n\n```\n%s```\n\n",
		fig13.Summary(), Chart(fig13.Accuracy, 72, 8)); err != nil {
		return err
	}
	if err := p("## Figure 14 — T_snd adaptation\n\n%s\n\n```\n%s```\n\n",
		fig14.Summary(), Chart(fig14.Tsnd, 72, 8)); err != nil {
		return err
	}
	if err := p("## Figure 15 — T_snd distribution and lifetime\n\n%s\n\n```\n%s```\n\n",
		fig15.Summary(), CDFChart(fig15.CDFXs, fig15.CDFPs, 48)); err != nil {
		return err
	}
	if err := p("## Exergy audit\n\n```\n%s```\n\n", audit.Summary()); err != nil {
		return err
	}
	if err := p("## Ablations\n\n```\n%s```\n\n"+
		"- condensation guard: %.0f s wet (guarded) vs %.0f s (unguarded)\n"+
		"- AC desync: %d collisions vs %d without\n",
		experiments.SummarizeSupplyTemp(sweep),
		nc.GuardedCondensationS, nc.UnguardedCondensationS,
		ds.WithDesync.Collided, ds.WithoutDesync.Collided); err != nil {
		return err
	}
	return nil
}
