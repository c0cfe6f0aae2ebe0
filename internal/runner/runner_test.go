package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEveryJobOnce pins the claim loop's coverage: at every
// width, wider and narrower than n, each index runs exactly once.
func TestPoolRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 100} {
			counts := make([]atomic.Int32, n)
			err := NewPool(workers).ForEach(context.Background(), n, func(_ context.Context, i int) error {
				counts[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestPoolForEachStopsClaimsAfterFirstError pins what ForEach does on
// its first error. Index 0 fails after 10 ms and every other index takes
// 50 ms, so each worker starts at most the one index it claimed before
// the failure, and the error names the failed index. The indices still
// running finish under the caller's context, which ForEach does not
// cancel (only Run does), and ForEach returns after them.
func TestPoolForEachStopsClaimsAfterFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 4} {
		var started, finished, cancelled atomic.Int32
		err := NewPool(workers).ForEach(context.Background(), 100, func(ctx context.Context, i int) error {
			started.Add(1)
			defer finished.Add(1)
			if i == 0 {
				time.Sleep(10 * time.Millisecond)
				return boom
			}
			time.Sleep(50 * time.Millisecond)
			if ctx.Err() != nil {
				cancelled.Add(1)
			}
			return nil
		})
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "job 0: ") {
			t.Fatalf("workers=%d: err = %v, want job 0's %v", workers, err, boom)
		}
		if got := started.Load(); got > int32(workers) {
			t.Errorf("workers=%d: %d indices started, want at most one per worker", workers, got)
		}
		if got, want := finished.Load(), started.Load(); got != want {
			t.Errorf("workers=%d: ForEach returned with %d of %d started indices finished", workers, got, want)
		}
		if got := cancelled.Load(); got != 0 {
			t.Errorf("workers=%d: %d indices in flight saw a cancelled context, want none", workers, got)
		}
	}
}

// TestPoolBoundsConcurrency pins the width of both fan-outs, the caller
// counted as a worker: no more than Workers jobs run at once, and the
// pool starts at most Workers-1 goroutines besides the caller.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers, n = 3, 50
	p := NewPool(workers)
	for _, fanOut := range []string{"ForEach", "Run"} {
		var inFlight, peak, peakGoroutines atomic.Int32
		before := int32(runtime.NumGoroutine())
		job := func(context.Context) error {
			raise := func(v *atomic.Int32, cur int32) {
				for {
					old := v.Load()
					if cur <= old || v.CompareAndSwap(old, cur) {
						return
					}
				}
			}
			raise(&peak, inFlight.Add(1))
			raise(&peakGoroutines, int32(runtime.NumGoroutine()))
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return nil
		}
		var err error
		if fanOut == "ForEach" {
			err = p.ForEach(context.Background(), n, func(ctx context.Context, _ int) error { return job(ctx) })
		} else {
			jobs := make([]Job, n)
			for i := range jobs {
				jobs[i] = job
			}
			err = p.Run(context.Background(), jobs...)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got > workers {
			t.Errorf("%s: peak concurrency %d exceeds %d workers", fanOut, got, workers)
		}
		if got := peakGoroutines.Load() - before; got > workers-1 {
			t.Errorf("%s: %d goroutines beside the caller's, want at most %d", fanOut, got, workers-1)
		}
	}
}

// TestPoolFirstErrorCancels pins that Run's first error cancels the
// context of the jobs still running. Two workers run the two jobs at
// once: job 0 fails once job 1 has started, and job 1 waits for its
// context to be done, or 30 s.
func TestPoolFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{})
	cancelled := false
	err := NewPool(2).Run(context.Background(),
		func(context.Context) error {
			<-started
			return boom
		},
		func(ctx context.Context) error {
			close(started)
			select {
			case <-ctx.Done():
				cancelled = true
			case <-time.After(30 * time.Second):
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !cancelled {
		t.Error("job 1 ran to its end, want its context cancelled by job 0's error")
	}
}

func TestPoolRespectsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPool(2)
	ran := false
	err := p.Run(ctx, func(context.Context) error { ran = true; return nil },
		func(context.Context) error { ran = true; return nil })
	if err == nil {
		t.Error("cancelled context should fail the batch")
	}
	if ran {
		t.Error("no job should run under a pre-cancelled context")
	}
}

func TestPoolWidthIndependence(t *testing.T) {
	// The same fan-out must produce identical per-slot results at any
	// worker count — the determinism contract the experiment sweeps rely
	// on.
	run := func(workers int) []uint64 {
		out := make([]uint64, 64)
		p := NewPool(workers)
		if err := p.ForEach(context.Background(), len(out), func(_ context.Context, i int) error {
			out[i] = DeriveSeed(42, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	wide := run(8)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("slot %d differs: width-1 %d vs width-8 %d", i, serial[i], wide[i])
		}
	}
}

// checkPanicError requires err to name the panic value and carry the
// stack of the goroutine that panicked, which runs through this file.
func checkPanicError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("a panicking job returned no error")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "panic: boom\n") {
		t.Errorf("error %q does not start %q", strings.SplitN(msg, "\n", 2)[0], "panic: boom")
	}
	if !strings.Contains(msg, "runner_test.go") {
		t.Errorf("error carries no stack through the job:\n%s", msg)
	}
}

func TestPoolRecoversPanicInOneJobRun(t *testing.T) {
	slot := 0
	err := NewPool(4).Run(context.Background(), func(context.Context) error {
		slot = 1
		panic("boom")
	})
	checkPanicError(t, err)
	if slot != 1 {
		t.Errorf("slot = %d, want the job's write to stand", slot)
	}
}

func TestPoolRecoversPanicInManyJobRun(t *testing.T) {
	const n = 8
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			var slots [n]int
			var others sync.WaitGroup
			others.Add(n - 1)
			// The last job dispatched waits for every other job, so none
			// is skipped, then panics.
			err := NewPool(workers).ForEach(context.Background(), n, func(_ context.Context, i int) error {
				if i == n-1 {
					others.Wait()
					panic("boom")
				}
				slots[i] = i + 1
				others.Done()
				return nil
			})
			checkPanicError(t, err)
			for i := 0; i < n-1; i++ {
				if slots[i] != i+1 {
					t.Errorf("slot %d = %d, want %d", i, slots[i], i+1)
				}
			}
		})
	}
}

func TestDeriveSeedDisjoint(t *testing.T) {
	seen := make(map[uint64]uint64)
	for base := uint64(0); base < 4; base++ {
		for i := uint64(0); i < 1000; i++ {
			s := DeriveSeed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %d (base %d idx %d, prev %d)", s, base, i, prev)
			}
			seen[s] = base
			if s == base {
				t.Errorf("derived seed equals base %d at idx %d", base, i)
			}
		}
	}
}

func TestCacheSingleflight(t *testing.T) {
	var runs atomic.Int32
	c := NewCache[string, int](0)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
				runs.Add(1)
				time.Sleep(2 * time.Millisecond)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1 (singleflight)", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	var runs int
	c := NewCache[int, int](0)
	fail := errors.New("transient")
	if _, err := c.Do(context.Background(), 1, func(context.Context) (int, error) {
		runs++
		return 0, fail
	}); !errors.Is(err, fail) {
		t.Fatalf("err = %v", err)
	}
	v, err := c.Do(context.Background(), 1, func(context.Context) (int, error) {
		runs++
		return 9, nil
	})
	if err != nil || v != 9 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if runs != 2 {
		t.Errorf("fn ran %d times, want 2 (errors are not memoized)", runs)
	}
}

func TestCacheEvictsOldest(t *testing.T) {
	c := NewCache[int, int](2)
	for k := 0; k < 3; k++ {
		if _, err := c.Do(context.Background(), k, func(context.Context) (int, error) {
			return k * 10, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Key 0 was evicted: recomputing it must call fn again.
	recomputed := false
	if _, err := c.Do(context.Background(), 0, func(context.Context) (int, error) {
		recomputed = true
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Error("oldest entry survived past the bound")
	}
	// Key 2 must still be cached.
	if _, err := c.Do(context.Background(), 2, func(context.Context) (int, error) {
		t.Error("recent entry was evicted")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioCacheKeyedBySeedAndDuration(t *testing.T) {
	c := NewCache[ScenarioKey, string](0)
	var runs atomic.Int32
	get := func(seed uint64, d time.Duration) string {
		v, err := c.Do(context.Background(), ScenarioKey{Seed: seed, Duration: d}, func(context.Context) (string, error) {
			runs.Add(1)
			return fmt.Sprintf("%d/%v", seed, d), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a := get(1, time.Hour)
	b := get(1, time.Hour) // memoized
	if a != b || runs.Load() != 1 {
		t.Errorf("identical keys recomputed: %q %q (%d runs)", a, b, runs.Load())
	}
	get(1, 2*time.Hour) // different duration
	get(2, time.Hour)   // different seed
	if got := runs.Load(); got != 3 {
		t.Errorf("fn ran %d times, want 3 distinct keys", got)
	}
}

func TestCacheWaiterCancellation(t *testing.T) {
	c := NewCache[string, int](0)
	blocked := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = c.Do(context.Background(), "slow", func(context.Context) (int, error) {
			close(blocked)
			<-release
			return 1, nil
		})
	}()
	<-blocked
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Do(ctx, "slow", func(context.Context) (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
}
