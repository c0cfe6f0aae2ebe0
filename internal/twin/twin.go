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
	"fmt"
	"sync"
	"time"

	"bubblezero/internal/fleet"
)

// Config is the JSON surface a twin is created from. It maps onto
// fleet.DefaultConfig with the fleet's memory budget disabled (twins
// record telemetry, whose cost the budget would misattribute) and trace
// sampling on by default — telemetry is the point of a twin. Construction
// fault plans are deliberately absent: faults enter a twin only as live
// events, which the journal can replay on restore.
type Config struct {
	// Buildings is the fleet size. Must be > 0.
	Buildings int `json:"buildings"`
	// Shards partitions the buildings across workers; 0 selects NumCPU.
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

// runChunkTicks bounds how long the runner holds the fleet lock: one
// chunk per lock window, so reads and snapshots interleave with a long
// run at epoch granularity.
const runChunkTicks = 512

// Twin is one live simulation: a fleet plus a background runner that
// advances it on demand. All exported methods are safe for concurrent use
// by HTTP handlers. When both locks are taken, mu nests inside nothing:
// the runner and every reader release mu before touching runMu.
//
//bzlint:guards mu fl
//bzlint:guards runMu pending,runErr
type Twin struct {
	cfg   Config
	start time.Time // simulated start instant; query offsets are relative to it

	// mu serializes fleet access: the runner holds it for one chunk of
	// ticks at a time, queries and snapshots take it between chunks.
	mu sync.Mutex
	fl *fleet.Fleet

	// runMu guards the run queue and the runner's terminal error.
	runMu   sync.Mutex
	pending uint64
	runErr  error

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
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	//bzlint:allow determinism service-layer runner, not tick code: the fleet it drives applies events only at epoch boundaries, so scheduling cannot reorder simulated state
	go t.runLoop()
	return t
}

// Config returns the twin's creation config.
func (t *Twin) Config() Config { return t.cfg }

// Start returns the simulated start instant; query time offsets are
// seconds since it.
func (t *Twin) Start() time.Time { return t.start }

// RunTicks queues n more ticks for the background runner. It returns the
// runner's terminal error, if one has occurred: a failed twin stays
// readable but will not advance further.
func (t *Twin) RunTicks(n uint64) error {
	t.runMu.Lock()
	defer t.runMu.Unlock()
	if t.runErr != nil {
		return t.runErr
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

// Status reports the twin's current tick count and run backlog.
func (t *Twin) Status() Status {
	t.mu.Lock()
	ticks := t.fl.Ticks()
	buildings := t.fl.Buildings()
	t.mu.Unlock()
	t.runMu.Lock()
	st := Status{Buildings: buildings, Ticks: ticks, Pending: t.pending}
	if t.runErr != nil {
		st.Err = t.runErr.Error()
	}
	t.runMu.Unlock()
	return st
}

// Apply injects a live event; it lands at the next epoch boundary.
// Lock-free by design: the fl pointer is immutable after construction and
// fleet.Apply synchronizes internally (evMu), so taking mu here would
// only serialize event injection against long run chunks.
//
//bzlint:allow lockcheck fl pointer is immutable after construction; fleet.Apply locks evMu internally
func (t *Twin) Apply(ev fleet.Event) error { return t.fl.Apply(ev) }

// View runs fn with exclusive access to the fleet, between run chunks.
// fn must read only — mutations bypass the event journal and would break
// snapshot replay.
func (t *Twin) View(fn func(fl *fleet.Fleet) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fn(t.fl)
}

// Snapshot captures the twin at the current epoch boundary.
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
// captured tick, journal replay included.
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

// runLoop drains the run queue in bounded chunks, releasing the fleet
// lock between chunks so reads and snapshots interleave with long runs.
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
			chunk := t.pending
			if chunk > runChunkTicks {
				chunk = runChunkTicks
			}
			t.runMu.Unlock()
			if chunk == 0 {
				break
			}
			t.mu.Lock()
			err := t.fl.RunTicks(context.Background(), chunk)
			t.mu.Unlock()
			t.runMu.Lock()
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
