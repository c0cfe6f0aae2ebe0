// Package twin is the digital-twin service layer: it wraps an
// internal/fleet simulation in a long-lived handle that an HTTP server
// (cmd/bubblezerod) can create from a validated config, advance in the
// background, mutate through fleet.Apply events, read through
// deterministic trace queries, and checkpoint/restore through a versioned
// gob snapshot.
//
// The twin never touches the wall clock: runs advance by explicit tick
// counts, queries address simulated time as offsets from the config's
// start instant, and snapshot identity is pinned by the same bit-exact
// fingerprints the fleet tests use. A twin restored from a snapshot in a
// fresh process replays the remainder of its run bit-identically to an
// uninterrupted one.
package twin

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fleet"
)

// Config is the JSON surface a twin is created from. It maps onto
// fleet.DefaultConfig with trace sampling on by default — telemetry is
// the point of a twin — and with the fleet's per-building memory budget
// off. That budget's default is sized for untraced buildings, and a
// twin's traced ones cost more (fleet.Config.BytesPerBuilding counts
// their rings); what should bound a twin is a budget across the server,
// and bubblezerod has none yet. Construction fault plans are
// deliberately absent: faults enter a twin only as live events, which
// the journal can replay on restore.
type Config struct {
	// Buildings is the fleet size. Must be > 0.
	Buildings int `json:"buildings"`
	// Shards is the number of workers that step the buildings, each
	// claiming the next building in turn; 0 selects NumCPU.
	Shards int `json:"shards,omitempty"`
	// Seed is the fleet seed; 0 keeps the fleet default.
	Seed uint64 `json:"seed,omitempty"`
	// EpochTicks is the epoch length; 0 keeps the fleet default (512).
	EpochTicks int `json:"epoch_ticks,omitempty"`
	// SampleEvery records traces on every k-th building; 0 selects 1
	// (every building).
	SampleEvery int `json:"sample_every,omitempty"`
	// SampleRetention bounds each sampled series to a ring of the most
	// recent n samples; 0 keeps unbounded history.
	SampleRetention int `json:"sample_retention,omitempty"`
}

// FleetConfig expands the twin config into the full fleet configuration.
// The expansion is deterministic, so a snapshot that carries the twin
// config rebuilds an identical fleet in a fresh process.
func (c Config) FleetConfig() (fleet.Config, error) {
	fc := fleet.DefaultConfig(c.Buildings)
	fc.Shards = c.Shards
	if c.Seed != 0 {
		fc.Seed = c.Seed
	}
	fc.EpochTicks = c.EpochTicks
	fc.MemBudgetBytes = 0
	fc.SampleEvery = c.SampleEvery
	if fc.SampleEvery == 0 {
		fc.SampleEvery = 1
	}
	fc.SampleRetention = c.SampleRetention
	if err := fc.Validate(); err != nil {
		return fleet.Config{}, err
	}
	return fc, nil
}

// A runner chunk aims at chunkBuildingTicks building-ticks. A chunk is
// how long a Snapshot or Close waits for the runner and how often Status
// sees its progress; a query waits only for its own building's epoch
// inside it. A chunk's end is also when a query gets a CPU at all: while
// the pool's workers claim buildings they keep every CPU busy, and the
// Go scheduler looks for newly arrived requests only when a CPU runs out
// of work (or from its monitor, about every 10 ms). The aim was measured
// on a 2-vCPU host at 64 buildings, where it is the 32-tick floor and
// lasts about 4.5 ms, and at 8, 16 and 32 buildings; at the other sizes
// from 5 to 63 buildings its latency and runner rate are unverified
// (DESIGN.md §11). Small fleets keep maxChunkTicks. Large fleets get at
// least minChunkTicks: every Fleet.RunTicks call pays for a barrier and
// a walk over every building's state, and 8-tick calls slowed a
// 1000-building twin's runner by a third against 512-tick calls.
const (
	chunkBuildingTicks = 2048
	minChunkTicks      = 32
	maxChunkTicks      = 512
)

// chunkTicks is the runner's chunk for a fleet of the given size: 512
// ticks up to 4 buildings, 256 at 8, 128 at 16, 32 from 64 up.
func chunkTicks(buildings int) uint64 {
	return uint64(min(maxChunkTicks, max(minChunkTicks, chunkBuildingTicks/buildings)))
}

// Twin is one live simulation: a fleet plus a background runner that
// advances it on demand. All exported methods are safe for concurrent use
// by HTTP handlers. When both locks are taken, mu nests inside nothing:
// the runner and every reader release mu before touching runMu.
//
//bzlint:guards mu fl
//bzlint:guards runMu pending,runErr,ticks
type Twin struct {
	cfg   Config
	start time.Time // simulated start instant; query offsets are relative to it

	// mu guards the fleet. The runner holds it shared for one chunk at a
	// time and is the only writer under it: it steps and changes each
	// building under that building's own lock (fleet.ViewBuilding's).
	// Readers share mu too, and touch only the fleet's immutable fields
	// and, under its read lock, the one building they read. Snapshot
	// holds mu alone, so it sees every building at one tick.
	mu sync.RWMutex
	fl *fleet.Fleet

	// runMu guards the run queue, the tick count the runner last
	// published, and the runner's terminal error.
	runMu   sync.Mutex
	pending uint64
	runErr  error
	ticks   uint64

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// NewTwin validates cfg, builds its fleet, and starts the runner.
func NewTwin(ctx context.Context, cfg Config) (*Twin, error) {
	fc, err := cfg.FleetConfig()
	if err != nil {
		return nil, err
	}
	fl, err := fleet.New(ctx, fc)
	if err != nil {
		return nil, err
	}
	return startTwin(cfg, fc.Base.Start, fl), nil
}

func startTwin(cfg Config, start time.Time, fl *fleet.Fleet) *Twin {
	t := &Twin{
		cfg:   cfg,
		start: start,
		fl:    fl,
		ticks: fl.Ticks(),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	//bzlint:allow determinism service-layer runner, not tick code: scheduling decides the tick an event lands on, but the fleet journals that tick and a restore replays the event there
	go t.runLoop()
	return t
}

// Config returns the twin's creation config.
func (t *Twin) Config() Config { return t.cfg }

// Start returns the simulated start instant; query time offsets are
// seconds since it.
func (t *Twin) Start() time.Time { return t.start }

// errBacklogOverflow rejects a run whose ticks the backlog cannot count.
var errBacklogOverflow = errors.New("twin: run backlog would overflow")

// RunTicks queues n more ticks for the background runner. It returns the
// runner's terminal error, if one has occurred: a failed twin stays
// readable but will not advance further. A request that would overflow
// the backlog is refused, and the backlog stays as it was.
func (t *Twin) RunTicks(n uint64) error {
	t.runMu.Lock()
	defer t.runMu.Unlock()
	if t.runErr != nil {
		return t.runErr
	}
	if n > math.MaxUint64-t.pending {
		return fmt.Errorf("%w: %d ticks pending, %d more requested", errBacklogOverflow, t.pending, n)
	}
	t.pending += n
	select {
	case t.wake <- struct{}{}:
	default:
	}
	return nil
}

// Status is a twin's progress report.
type Status struct {
	Buildings int    `json:"buildings"`
	Ticks     uint64 `json:"ticks"`
	Pending   uint64 `json:"pending"`
	Err       string `json:"error,omitempty"`
}

// Status reports the twin's current tick count and run backlog. It
// reads only what the runner publishes at each chunk end, so it never
// waits for a chunk in progress.
func (t *Twin) Status() Status {
	t.runMu.Lock()
	defer t.runMu.Unlock()
	st := Status{Buildings: t.cfg.Buildings, Ticks: t.ticks, Pending: t.pending}
	if t.runErr != nil {
		st.Err = t.runErr.Error()
	}
	return st
}

// Apply injects a live event; it lands at the next epoch boundary.
// Lock-free by design: the fl pointer is immutable after construction and
// fleet.Apply synchronizes internally (evMu), so taking mu here would
// only serialize event injection against long run chunks.
//
//bzlint:allow lockcheck fl pointer is immutable after construction; fleet.Apply locks evMu internally
func (t *Twin) Apply(ev fleet.Event) error { return t.fl.Apply(ev) }

// viewBuilding runs fn on building i while the runner may be stepping
// the others: fn waits only for building i's epoch in progress, if any
// (fleet.ViewBuilding). fn must write nothing, not even a memo —
// Recorder.Series, for one, caches its last lookup. bzlint's lockcheck
// cannot see such a write, made inside fn or behind a method call; `make
// race-twin` runs the read paths under the race detector to catch it.
func (t *Twin) viewBuilding(i int, fn func(sys *core.System) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.fl.ViewBuilding(i, fn)
}

// Snapshot captures the twin at the current epoch boundary. It holds the
// fleet lock alone, so no chunk is in progress and every building stands
// at one tick; and ExportState first drains queued events into the
// fleet, which is a write.
func (t *Twin) Snapshot() (*Snapshot, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := t.fl.ExportState()
	if err != nil {
		return nil, err
	}
	return &Snapshot{Version: SnapshotVersion, Config: t.cfg, State: st}, nil
}

// RestoreTwin builds a fresh twin from a snapshot: the fleet is
// reconstructed from the embedded config — construction is deterministic,
// so the topology matches position for position — and patched to the
// captured tick, journal replay included. Its buildings are decoded
// already, so there is nothing for a build to overlap, and both stages
// run on the fleet's pool; POST /twins/restore, which decodes as it
// restores, takes fleet.Restore instead.
func RestoreTwin(ctx context.Context, snap *Snapshot) (*Twin, error) {
	fc, err := snap.Config.FleetConfig()
	if err != nil {
		return nil, fmt.Errorf("twin: restore: %w", err)
	}
	fl, err := fleet.New(ctx, fc)
	if err != nil {
		return nil, fmt.Errorf("twin: restore: %w", err)
	}
	if err := fl.RestoreState(snap.State); err != nil {
		return nil, fmt.Errorf("twin: restore: %w", err)
	}
	return startTwin(snap.Config, fc.Base.Start, fl), nil
}

// Close stops the runner and waits for it to exit. Queued ticks that have
// not started are abandoned.
func (t *Twin) Close() {
	select {
	case <-t.quit:
	default:
		close(t.quit)
	}
	<-t.done
}

// runLoop drains the run queue in bounded chunks. It holds the fleet
// lock shared, so readers run beside a chunk and wait only for their own
// building's epoch, and it releases the lock between chunks so a
// Snapshot, which holds it alone, waits at most for the chunk in
// progress.
func (t *Twin) runLoop() {
	defer close(t.done)
	for {
		select {
		case <-t.quit:
			return
		case <-t.wake:
		}
		for {
			select {
			case <-t.quit:
				return
			default:
			}
			t.runMu.Lock()
			chunk := min(t.pending, chunkTicks(t.cfg.Buildings))
			t.runMu.Unlock()
			if chunk == 0 {
				break
			}
			t.mu.RLock()
			err := t.fl.RunTicks(context.Background(), chunk)
			ticks := t.fl.Ticks()
			t.mu.RUnlock()
			t.runMu.Lock()
			t.ticks = ticks
			if err != nil {
				t.runErr = err
				t.pending = 0
			} else {
				t.pending -= chunk
			}
			t.runMu.Unlock()
			if err != nil {
				break
			}
		}
	}
}
