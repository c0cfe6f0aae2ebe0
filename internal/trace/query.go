package trace

import (
	"errors"
	"fmt"
	"time"
)

// Agg selects the per-bucket aggregate a Query computes.
type Agg int

const (
	// AggLast is sample-and-hold: each bucket reports the most recent
	// value at or before the bucket instant, carrying the previous value
	// across empty buckets — the semantics CSV export and dashboards
	// expect for step-wise signals.
	AggLast Agg = iota
	// AggMin reports the minimum over the bucket window.
	AggMin
	// AggMax reports the maximum over the bucket window.
	AggMax
	// AggMean reports the arithmetic mean over the bucket window.
	AggMean
)

// String returns the aggregate's stable name.
func (a Agg) String() string {
	switch a {
	case AggLast:
		return "last"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggMean:
		return "mean"
	}
	return fmt.Sprintf("trace.Agg(%d)", int(a))
}

// ParseAgg maps an aggregate name ("last", "min", "max", "mean") to its
// Agg value — the inverse of String, for query-string parsing.
func ParseAgg(s string) (Agg, error) {
	switch s {
	case "", "last":
		return AggLast, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "mean":
		return AggMean, nil
	}
	return 0, fmt.Errorf("trace: unknown aggregate %q (want last, min, max, or mean)", s)
}

// Query describes one deterministic downsampled read over a series: a
// sample at every instant From, From+Step, …, up to and including the last
// instant not after To. Bucket k (k >= 1) aggregates the window
// (From+(k-1)·Step, From+k·Step]; bucket 0 covers the single instant From.
//
// Bucket boundaries are a pure function of From and Step — never of the
// series contents — so a ring-retained series answers the same query with
// the same boundaries regardless of which samples retention has evicted:
// eviction can only empty a bucket (or shorten AggLast's lookback), never
// shift one. That stability is what makes downsampled reads reproducible
// while the underlying ring turns over.
type Query struct {
	From, To time.Time
	Step     time.Duration
	Agg      Agg
}

// QueryPoint is one bucket of a query result. OK reports whether the
// bucket had data: for AggLast, whether any sample exists at or before the
// bucket instant; for the windowed aggregates, whether the bucket window
// contained at least one sample.
type QueryPoint struct {
	At    time.Time
	Value float64
	OK    bool
}

// ErrNoSeries is returned by Recorder.Query for an unknown series name.
var ErrNoSeries = errors.New("trace: no such series")

// Query evaluates q over the series in one pass and appends the buckets to
// dst, returning the extended slice. dst's backing array is reused (pass a
// recycled buffer for allocation-free steady-state reads, or nil for a
// fresh one). Samples are visited in time order, so the aggregate folds
// are deterministic.
//
//bzlint:hotpath
func (s *Series) Query(q Query, dst []QueryPoint) ([]QueryPoint, error) {
	if q.Step <= 0 {
		//bzlint:allow hotpath cold validation exit, not on the steady-state read path
		return dst, fmt.Errorf("trace: query step must be positive, got %v", q.Step)
	}
	if q.To.Before(q.From) {
		//bzlint:allow hotpath cold validation exit, not on the steady-state read path
		return dst, fmt.Errorf("trace: query window [%v, %v] is inverted", q.From, q.To)
	}
	dst = dst[:0]
	fromN := q.From.UnixNano()
	stepN := q.Step.Nanoseconds()
	last := int64(q.To.Sub(q.From) / q.Step) // index of the final bucket
	n := s.Len()

	// Samples before From only feed bucket 0's carry, and only the last
	// of them counts: a binary search skips the rest, so a window late in
	// a long series costs its own samples, not the history before it.
	i, hi := 0, n
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if s.at(mid).nanos < fromN {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	i = max(i-1, 0)

	// One forward sweep: i consumes samples in time order; samples before
	// a bucket's window still advance the AggLast carry.
	var carry float64
	haveCarry := false
	for k := int64(0); k <= last; k++ {
		endN := fromN + k*stepN
		// Fold every not-yet-consumed sample at or before the bucket
		// instant. For bucket 0 only the exact From instant is "inside";
		// earlier samples feed the carry alone.
		startN := endN - stepN
		if k == 0 {
			startN = fromN - 1
		}
		inWindow := 0
		minV, maxV, sum := 0.0, 0.0, 0.0
		for i < n {
			p := s.at(i)
			if p.nanos > endN {
				break
			}
			carry, haveCarry = p.value, true
			if p.nanos > startN {
				if inWindow == 0 {
					minV, maxV = p.value, p.value
				} else {
					if p.value < minV {
						minV = p.value
					}
					if p.value > maxV {
						maxV = p.value
					}
				}
				sum += p.value
				inWindow++
			}
			i++
		}
		pt := QueryPoint{At: time.Unix(0, endN).UTC()}
		switch q.Agg {
		case AggLast:
			pt.Value, pt.OK = carry, haveCarry
		case AggMin:
			pt.Value, pt.OK = minV, inWindow > 0
		case AggMax:
			pt.Value, pt.OK = maxV, inWindow > 0
		case AggMean:
			if inWindow > 0 {
				pt.Value, pt.OK = sum/float64(inWindow), true
			}
		}
		dst = append(dst, pt)
	}
	return dst, nil
}

// Query evaluates q over the named series. Unknown names return
// ErrNoSeries (wrapped with the name), so servers can map them to a 404
// without creating empty series as a side effect.
func (r *Recorder) Query(name string, q Query, dst []QueryPoint) ([]QueryPoint, error) {
	s, ok := r.series[name]
	if !ok {
		return dst, fmt.Errorf("trace: series %q: %w", name, ErrNoSeries)
	}
	return s.Query(q, dst)
}
