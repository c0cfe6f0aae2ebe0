// Package trace records named time series during simulation runs and
// renders them as CSV or summary statistics. It is the in-repo equivalent
// of the paper's sniffer-node data log (§V): every figure is generated by
// replaying or summarising recorder contents.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// Point is one sample of a series.
type Point struct {
	At    time.Time
	Value float64
}

// point is the internal pointer-free sample representation: Unix
// nanoseconds instead of time.Time (whose *Location field would make
// every ever-growing series backing array a GC scan target). Series
// therefore cover the Unix-nanosecond range (years 1678–2262), far wider
// than any simulated trial, and reconstructed times are reported in UTC.
type point struct {
	nanos int64
	value float64
}

// Chunked storage geometry: samples live in fixed-size chunks so an
// append never relocates earlier samples. A flat append-grown slice costs
// an amortized full-history copy per doubling — on a multi-hour run that
// memmove/memclr churn dominates the recording path — while chunks cap
// the write cost at one 128 KiB allocation per chunkSize appends. Every
// chunk except the open tail is exactly chunkSize long, so random access
// is two shifts away.
const (
	chunkShift = 13
	chunkSize  = 1 << chunkShift // 8192 points, 128 KiB
	chunkMask  = chunkSize - 1
)

// Series is an append-only sequence of points in time order.
//
// A series stores its full history by default. SetRetention switches it
// to a fixed-capacity ring that keeps only the most recent samples — the
// fleet layer's storage mode for sampled buildings, where a dashboard
// window of history is wanted at a bounded, pre-allocated memory cost.
type Series struct {
	name   string
	chunks [][]point // all but the last are exactly chunkSize long
	spare  [][]point // empty chunks pre-allocated by Grow

	// Ring retention (active when retain > 0): ring holds the most recent
	// rlen samples, oldest at head. The buffer is allocated once by
	// SetRetention and slots are reused forever after, so the steady-state
	// Append path is strictly allocation-free.
	retain int
	ring   []point
	head   int
	rlen   int
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Len returns the number of points.
func (s *Series) Len() int {
	if s.retain > 0 {
		return s.rlen
	}
	n := len(s.chunks)
	if n == 0 {
		return 0
	}
	return (n-1)<<chunkShift + len(s.chunks[n-1])
}

// at returns point i; i must be in [0, Len).
func (s *Series) at(i int) point {
	if s.retain > 0 {
		j := s.head + i
		if j >= s.retain {
			j -= s.retain
		}
		return s.ring[j]
	}
	return s.chunks[i>>chunkShift][i&chunkMask]
}

// forEach visits every point in time order until fn returns false.
func (s *Series) forEach(fn func(point) bool) {
	if s.retain > 0 {
		for i := 0; i < s.rlen; i++ {
			if !fn(s.at(i)) {
				return
			}
		}
		return
	}
	for _, c := range s.chunks {
		for _, p := range c {
			if !fn(p) {
				return
			}
		}
	}
}

// SetRetention bounds the series to the most recent n samples, converting
// it to a pre-allocated ring buffer: older samples beyond n are dropped
// (including any already recorded), and subsequent appends reuse the ring
// slots with no further allocation. n <= 0 restores unbounded retention,
// moving the retained samples back into chunked storage.
func (s *Series) SetRetention(n int) {
	if n == s.retain {
		return
	}
	if n <= 0 {
		// Ring → unbounded: replay the retained window into chunks.
		ring, rlen, head, retain := s.ring, s.rlen, s.head, s.retain
		s.retain, s.ring, s.rlen, s.head = 0, nil, 0, 0
		s.chunks, s.spare = nil, nil
		for i := 0; i < rlen; i++ {
			j := head + i
			if j >= retain {
				j -= retain
			}
			s.append(ring[j])
		}
		return
	}
	old := s.Len()
	keep := old
	if keep > n {
		keep = n
	}
	ring := make([]point, 0, n)
	for i := old - keep; i < old; i++ {
		ring = append(ring, s.at(i))
	}
	s.chunks, s.spare = nil, nil
	s.retain, s.ring, s.head, s.rlen = n, ring, 0, keep
}

// Retention returns the ring capacity, or 0 for unbounded storage.
func (s *Series) Retention() int { return s.retain }

// Points returns a copy of the sample slice, with times in UTC.
func (s *Series) Points() []Point {
	out := make([]Point, 0, s.Len())
	s.forEach(func(p point) bool {
		out = append(out, Point{At: time.Unix(0, p.nanos).UTC(), Value: p.value})
		return true
	})
	return out
}

// Append adds a sample. Samples must be appended in non-decreasing time
// order; out-of-order samples are rejected. Appends are amortized
// allocation-free (one chunk per chunkSize samples), and Grow can reserve
// capacity up front for strictly allocation-free recording.
func (s *Series) Append(at time.Time, v float64) error {
	nanos := at.UnixNano()
	if n := s.Len(); n > 0 {
		if last := s.at(n - 1); nanos < last.nanos {
			//bzlint:allow hotpath cold rejection path; the tick path appends in time order by construction
			return fmt.Errorf("trace: series %q: sample at %v precedes last sample %v",
				s.name, at, time.Unix(0, last.nanos).UTC())
		}
	}
	s.append(point{nanos: nanos, value: v})
	return nil
}

// append stores one time-ordered point in the active storage mode.
func (s *Series) append(p point) {
	if s.retain > 0 {
		if s.rlen < s.retain {
			s.ring = append(s.ring, p) // within the cap reserved by SetRetention
			s.rlen++
			return
		}
		// Full: overwrite the oldest slot in place — pure scratch reuse.
		s.ring[s.head] = p
		s.head++
		if s.head == s.retain {
			s.head = 0
		}
		return
	}
	k := len(s.chunks)
	if k == 0 || len(s.chunks[k-1]) == chunkSize {
		var c []point
		if m := len(s.spare); m > 0 {
			c, s.spare = s.spare[m-1], s.spare[:m-1]
		} else {
			c = make([]point, 0, chunkSize)
		}
		s.chunks = append(s.chunks, c)
		k++
	}
	s.chunks[k-1] = append(s.chunks[k-1], p)
}

// Grow reserves capacity for at least n additional samples, so the next n
// Append calls perform no allocation. Hot recording loops with a known
// horizon use this to keep the per-tick path allocation-free.
func (s *Series) Grow(n int) {
	if n <= 0 || s.retain > 0 {
		return // ring storage is pre-allocated by SetRetention
	}
	free := len(s.spare) << chunkShift
	if k := len(s.chunks); k > 0 {
		free += chunkSize - len(s.chunks[k-1])
	}
	if free >= n {
		return
	}
	extra := (n - free + chunkMask) >> chunkShift
	// Reserve the chunk-header slice too: appending the spare chunks to
	// s.chunks later must not reallocate it mid-recording.
	if need := len(s.chunks) + len(s.spare) + extra; cap(s.chunks) < need {
		chunks := make([][]point, len(s.chunks), need)
		copy(chunks, s.chunks)
		s.chunks = chunks
	}
	for i := 0; i < extra; i++ {
		s.spare = append(s.spare, make([]point, 0, chunkSize))
	}
}

// At returns the most recent value at or before t, and false when the
// series has no sample that early.
func (s *Series) At(t time.Time) (float64, bool) {
	nanos := t.UnixNano()
	i := sort.Search(s.Len(), func(i int) bool { return s.at(i).nanos > nanos })
	if i == 0 {
		return 0, false
	}
	return s.at(i - 1).value, true
}

// Last returns the final value, and false for an empty series.
func (s *Series) Last() (float64, bool) {
	n := s.Len()
	if n == 0 {
		return 0, false
	}
	return s.at(n - 1).value, true
}

// Stats summarises a series.
type Stats struct {
	N         int
	Min, Max  float64
	Mean, Std float64
}

// statsAcc accumulates Stats in sample order with the same operation
// sequence whichever path feeds it, so windowed and whole-series stats
// stay bit-identical to each other.
type statsAcc struct {
	n          int
	min, max   float64
	sum, sumSq float64
}

func (a *statsAcc) add(v float64) {
	a.sum += v
	a.sumSq += v * v
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	a.n++
}

func (a *statsAcc) stats() Stats {
	if a.n == 0 {
		return Stats{}
	}
	st := Stats{N: a.n, Min: a.min, Max: a.max}
	st.Mean = a.sum / float64(a.n)
	variance := a.sumSq/float64(a.n) - st.Mean*st.Mean
	if variance > 0 {
		st.Std = math.Sqrt(variance)
	}
	return st
}

func newStatsAcc() statsAcc {
	return statsAcc{min: math.Inf(1), max: math.Inf(-1)}
}

// Stats computes summary statistics over all points.
func (s *Series) Stats() Stats {
	acc := newStatsAcc()
	s.forEach(func(p point) bool {
		acc.add(p.value)
		return true
	})
	return acc.stats()
}

// StatsBetween computes statistics over the window [from, to].
func (s *Series) StatsBetween(from, to time.Time) Stats {
	lo, hi := from.UnixNano(), to.UnixNano()
	acc := newStatsAcc()
	s.forEach(func(p point) bool {
		if p.nanos >= lo && p.nanos <= hi {
			acc.add(p.value)
		}
		return true
	})
	return acc.stats()
}

// FirstCrossing returns the earliest time the series reaches or crosses
// threshold from the given direction (descending: first value <=
// threshold; ascending: first value >= threshold). ok is false if the
// series never crosses.
func (s *Series) FirstCrossing(threshold float64, descending bool) (time.Time, bool) {
	var at time.Time
	found := false
	s.forEach(func(p point) bool {
		if (descending && p.value <= threshold) || (!descending && p.value >= threshold) {
			at, found = time.Unix(0, p.nanos).UTC(), true
			return false
		}
		return true
	})
	return at, found
}

// Recorder holds an ordered collection of named series.
type Recorder struct {
	order  []string
	series map[string]*Series

	// last memoizes the most recently resolved series so Record loops
	// that hit one series (or alternate slowly between a few) skip the
	// map lookup; the common repeat compare is a pointer-equal string.
	lastName string
	last     *Series
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Series returns the named series, creating it on first use.
func (r *Recorder) Series(name string) *Series {
	if r.last != nil && name == r.lastName {
		return r.last
	}
	s, ok := r.series[name]
	if !ok {
		s = &Series{name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	r.lastName, r.last = name, s
	return s
}

// Has reports whether the named series exists.
func (r *Recorder) Has(name string) bool {
	_, ok := r.series[name]
	return ok
}

// Names returns series names in creation order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Record appends a sample to the named series, creating it if necessary.
func (r *Recorder) Record(name string, at time.Time, v float64) error {
	return r.Series(name).Append(at, v)
}

// WriteCSV renders the named series as aligned CSV columns sampled at the
// given period between from and to (inclusive). The first column is the
// elapsed time in seconds. Series without a sample at a row emit an empty
// cell. Each column is one AggLast Query — sample-and-hold at the row
// instants — so CSV export and the serving layer share one read path.
func (r *Recorder) WriteCSV(w io.Writer, names []string, from, to time.Time, period time.Duration) error {
	if period <= 0 {
		return fmt.Errorf("trace: WriteCSV period must be positive, got %v", period)
	}
	header := "elapsed_s"
	for _, n := range names {
		header += "," + n
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if to.Before(from) {
		return nil // header only, matching the empty row range
	}
	q := Query{From: from, To: to, Step: period, Agg: AggLast}
	cols := make([][]QueryPoint, len(names))
	for i, n := range names {
		s, ok := r.series[n]
		if !ok {
			continue // unknown series renders as an all-empty column
		}
		pts, err := s.Query(q, nil)
		if err != nil {
			return err
		}
		cols[i] = pts
	}
	rows := int(to.Sub(from)/period) + 1
	for k := 0; k < rows; k++ {
		row := strconv.FormatFloat((time.Duration(k) * period).Seconds(), 'f', 1, 64)
		for _, col := range cols {
			row += ","
			if col != nil && col[k].OK {
				row += strconv.FormatFloat(col[k].Value, 'f', 4, 64)
			}
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// WriteExact renders every series bit-exactly: one line per sample with
// the series name, the Unix-nanosecond timestamp, and the value formatted
// as a hexadecimal float (which round-trips float64 without loss). Series
// appear in creation order. Two recorders produce identical WriteExact
// output if and only if they hold identical samples — the property the
// kernel-determinism golden tests pin.
func (r *Recorder) WriteExact(w io.Writer) error {
	for _, name := range r.order {
		var err error
		r.series[name].forEach(func(p point) bool {
			_, err = fmt.Fprintf(w, "%s %d %s\n",
				name, p.nanos, strconv.FormatFloat(p.value, 'x', -1, 64))
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// CDF returns the empirical cumulative distribution of values: sorted
// unique values with the fraction of samples <= each value. Used for
// Figure 15.
func CDF(values []float64) (xs, ps []float64) {
	if len(values) == 0 {
		return nil, nil
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		//bzlint:allow floateq CDF run-length dedup of stored samples; equality means bit-identical recordings
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		xs = append(xs, sorted[i])
		ps = append(ps, float64(j)/n)
		i = j
	}
	return xs, ps
}
