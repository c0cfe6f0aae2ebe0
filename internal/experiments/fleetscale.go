package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"bubblezero/internal/fleet"
)

// FleetScaleResult captures the fleet-scale experiment: N independent
// BubbleZERO buildings with varied climates and occupancy, stepped by a
// worker per core, with the per-building memory cost and the
// aggregate stepping rate on the way.
type FleetScaleResult struct {
	Buildings int
	Shards    int // workers that stepped the fleet
	SimHours  float64
	// BytesPerBuilding is the live-heap cost per building at
	// construction as fleet.Config.BytesPerBuilding computes it from the
	// config. It is not measured here: the fleet tests pin the computation
	// against a GC-settled measurement, and the run forces no collection.
	BytesPerBuilding int64
	// BuildingTicksPerSec is the aggregate stepping rate: simulated
	// building-seconds per wall-clock second over the whole run. Unlike
	// everything else here it depends on the host, so it is reported but
	// never golden-pinned.
	BuildingTicksPerSec float64
	// Stats is the deterministic fleet-wide aggregate at the end of the
	// run.
	Stats fleet.Stats

	cfg fleet.Config
	fl  *fleet.Fleet
}

// FleetScale builds an n-building fleet from the default tropical
// variation template and steps it for d of simulated time on shards
// workers; 0 picks NumCPU.
func FleetScale(ctx context.Context, seed uint64, n, shards int, d time.Duration) (*FleetScaleResult, error) {
	cfg := fleet.DefaultConfig(n)
	cfg.Seed = seed
	cfg.Shards = shards
	fl, err := fleet.New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	//bzlint:allow determinism wall-clock throughput measures the host, not the model; it is why -fig all leaves fleet out
	wall := time.Now()
	if err := fl.Run(ctx, d); err != nil {
		return nil, err
	}
	//bzlint:allow determinism wall-clock throughput measures the host, not the model; it is why -fig all leaves fleet out
	elapsed := time.Since(wall).Seconds()
	r := &FleetScaleResult{
		Buildings:        n,
		Shards:           fl.Shards(),
		SimHours:         d.Hours(),
		BytesPerBuilding: fl.BytesPerBuilding(),
		Stats:            fl.Stats(),
		cfg:              cfg,
		fl:               fl,
	}
	if elapsed > 0 {
		r.BuildingTicksPerSec = float64(fl.Ticks()) * float64(n) / elapsed
	}
	return r, nil
}

// Summary renders the fleet experiment for the console.
func (r *FleetScaleResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet: %d buildings × %.1f h across %d worker(s): %.1f KiB/building, %.0f building-ticks/s\n",
		r.Buildings, r.SimHours, r.Shards,
		float64(r.BytesPerBuilding)/1024, r.BuildingTicksPerSec)
	fmt.Fprintf(&b, "  temp avg %.2f°C [%.2f, %.2f], dew avg %.2f°C, COP %.2f (%d/%d buildings), condensation %.0f s\n",
		r.Stats.AvgTempC, r.Stats.MinTempC, r.Stats.MaxTempC, r.Stats.AvgDewC,
		r.Stats.AvgCOP, r.Stats.COPSamples, r.Stats.Buildings, r.Stats.CondensationS)
	return b.String()
}

// WriteTable emits the per-building outcomes as CSV: the drawn boundary
// conditions next to the end-of-run room state, in building-index order.
func (r *FleetScaleResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"building,seed,outdoor_c,outdoor_dew_c,avg_temp_c,avg_dew_c,cop,condensation_s"); err != nil {
		return err
	}
	for i := 0; i < r.Buildings; i++ {
		p := r.cfg.ParamsFor(i)
		sys := r.fl.Building(i)
		if _, err := fmt.Fprintf(w, "%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.1f\n",
			i, p.Seed, p.OutdoorC, p.OutdoorDewC,
			sys.Room().AverageT(), sys.Room().AverageDewPoint(),
			sys.COPTotal().Value(), sys.CondensationSeconds()); err != nil {
			return err
		}
	}
	return nil
}
