// Package runner provides the concurrency substrate for the experiment
// suite: a bounded worker Pool whose workers claim independent jobs from
// one counter and stop claiming at the first error (Run also cancels the
// jobs still running; ForEach lets them finish), a singleflight Cache
// that deduplicates identical expensive computations, and deterministic
// per-job seed derivation so parallel experiments draw from disjoint,
// reproducible random streams.
//
// Determinism contract: the pool never communicates results — jobs write
// into caller-owned, per-index slots — and seeds are derived from (base,
// index) alone, so the outcome of a fan-out is identical at any worker
// count, including 1.
//
// A job that panics fails with an error naming the panic and carrying
// the stack; it does not end the process. Nothing else recovers a pool
// worker, and a caller such as a twin's runner turns the error into its
// own failed state while the rest of the process keeps running. Recover
// does the same for code that runs outside a pool.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Job is one unit of independent work. Jobs must not share mutable state
// except through distinct result slots owned by the caller.
type Job func(ctx context.Context) error

// Pool executes batches of independent jobs on a bounded set of workers.
// A Pool is stateless between Run calls and safe for concurrent use.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given worker count; workers <= 0 selects
// runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers}
}

// Run executes the jobs concurrently on at most Workers goroutines, the
// caller among them, and waits for all of them. The first error cancels
// the context handed to the jobs still running, and no job starts after
// it. The first error (in completion order) is returned. A job's panic
// is that job's error.
func (p *Pool) Run(ctx context.Context, jobs ...Job) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return p.claim(ctx, &claims{
		n:      int64(len(jobs)),
		fn:     func(ctx context.Context, i int) error { return jobs[i](ctx) },
		cancel: cancel,
	})
}

// ForEach runs fn for every index in [0, n) on at most Workers
// goroutines, the caller among them. Each worker claims the next index
// from one shared counter whenever it finishes the last, so a slow index
// holds up only the worker that runs it, and an index costs neither a
// closure nor a channel send. The first error, in completion order,
// stops new claims and is returned: an error fn returns is wrapped "job
// %d:", and fn's panic is its index's error as it stands. The indices
// still running finish under ctx. Results must be written into
// per-index slots; the order is unspecified, and without an error every
// index in [0, n) runs exactly once.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return p.claim(ctx, &claims{n: int64(n), fn: fn, wrap: true})
}

// claims is one fan-out: its workers take the indices [0, n) in order
// from next, and record the first error one of them meets.
//
//bzlint:guards mu err
type claims struct {
	n    int64
	fn   func(ctx context.Context, i int) error
	wrap bool // ForEach's: a returned error names its index
	// cancel, when set, cancels the jobs in flight on the first error.
	cancel context.CancelFunc

	next    atomic.Int64
	stopped atomic.Bool
	wg      sync.WaitGroup // the workers besides the caller
	mu      sync.Mutex
	err     error
}

// claim runs c on at most p.workers goroutines, the caller among them,
// and returns c's first error, or else ctx's.
func (p *Pool) claim(ctx context.Context, c *claims) error {
	if c.n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for range min(int64(p.workers), c.n) - 1 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.work(ctx)
		}()
	}
	c.work(ctx)
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ctx.Err()
}

// work claims and runs indices until none is left, an index has failed,
// or ctx is done.
func (c *claims) work(ctx context.Context) {
	for !c.stopped.Load() && ctx.Err() == nil {
		i := c.next.Add(1) - 1
		if i >= c.n {
			return
		}
		if err := c.run(ctx, int(i)); err != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = err
				c.stopped.Store(true)
				if c.cancel != nil {
					c.cancel()
				}
			}
			c.mu.Unlock()
			return
		}
	}
}

// run runs index i, turning its panic into its error.
func (c *claims) run(ctx context.Context, i int) (err error) {
	defer Recover(&err)
	if err := c.fn(ctx, i); err != nil {
		if c.wrap {
			return fmt.Errorf("job %d: %w", i, err)
		}
		return err
	}
	return nil
}

// Recover, deferred, turns a panic into *err the way a pool job's panic
// becomes its error: "panic: <value>" and the panicking goroutine's
// stack. It is for code that runs outside a pool and must not end the
// process either.
func Recover(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("panic: %v\n\n%s", v, debug.Stack())
	}
}

// DeriveSeed maps a (base seed, job index) pair to an independent seed via
// a splitmix64 finalizer. Two jobs of the same fan-out never share a
// stream, and the mapping depends only on its inputs — never on worker
// count or scheduling — so parallel sweeps stay bit-reproducible.
func DeriveSeed(base, index uint64) uint64 {
	z := base + 0x9e3779b97f4a7c15*(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
