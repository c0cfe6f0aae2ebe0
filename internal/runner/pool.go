// Package runner provides the concurrency substrate for the experiment
// suite: a bounded worker Pool that fans independent experiment closures
// across goroutines with first-error cancellation, a singleflight Cache
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

// Run executes the jobs concurrently on at most Workers goroutines and
// waits for all of them. The first error cancels the context handed to the
// remaining jobs; jobs not yet started are skipped once an error is
// recorded. The first error (in completion order) is returned. A job's
// panic is that job's error.
func (p *Pool) Run(ctx context.Context, jobs ...Job) error {
	if len(jobs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// A single in-flight job needs no goroutines; this keeps width-1 pools
	// (and the common one-job case) trivially deterministic to debug.
	if len(jobs) == 1 {
		return call(ctx, jobs[0])
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	workers := p.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	next := make(chan Job)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for job := range next {
				if jobCtx.Err() != nil {
					continue // drain: an earlier job already failed
				}
				if err := call(jobCtx, job); err != nil {
					fail(err)
				}
			}
		}()
	}
	for _, job := range jobs {
		next <- job
	}
	close(next)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// call runs job and returns its error, or the panic it raised as an error
// with the panicking goroutine's stack.
func call(ctx context.Context, job Job) (err error) {
	defer Recover(&err)
	return job(ctx)
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

// ForEach runs fn for every index in [0, n) through the pool. Results
// must be written into per-index slots; the iteration order is unspecified
// but the set of indices is exactly [0, n).
func (p *Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func(ctx context.Context) error {
			if err := fn(ctx, i); err != nil {
				return fmt.Errorf("job %d: %w", i, err)
			}
			return nil
		}
	}
	return p.Run(ctx, jobs...)
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
