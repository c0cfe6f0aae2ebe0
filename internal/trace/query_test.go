package trace

import (
	"math"
	"strings"
	"testing"
	"time"
)

func fill(s *Series, t *testing.T, vals ...float64) {
	t.Helper()
	for i, v := range vals {
		if err := s.Append(t0.Add(time.Duration(i)*time.Second), v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryAggregates(t *testing.T) {
	s := NewRecorder().Series("q")
	fill(s, t, 1, 5, 3, 9, 2, 7) // at t0+0s .. t0+5s

	q := Query{From: t0, To: t0.Add(5 * time.Second), Step: 2 * time.Second}

	// Buckets: k=0 instant t0 (sample 1); k=1 window (t0, t0+2s] (5, 3);
	// k=2 window (t0+2s, t0+4s] (9, 2).
	cases := []struct {
		agg  Agg
		want [3]float64
	}{
		{AggLast, [3]float64{1, 3, 2}},
		{AggMin, [3]float64{1, 3, 2}},
		{AggMax, [3]float64{1, 5, 9}},
		{AggMean, [3]float64{1, 4, 5.5}},
	}
	for _, c := range cases {
		q.Agg = c.agg
		pts, err := s.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 3 {
			t.Fatalf("%v: got %d buckets, want 3", c.agg, len(pts))
		}
		for k, p := range pts {
			if !p.OK {
				t.Errorf("%v bucket %d: not OK", c.agg, k)
			}
			if p.Value != c.want[k] {
				t.Errorf("%v bucket %d = %v, want %v", c.agg, k, p.Value, c.want[k])
			}
			wantAt := t0.Add(time.Duration(2*k) * time.Second)
			if !p.At.Equal(wantAt) {
				t.Errorf("%v bucket %d at %v, want %v", c.agg, k, p.At, wantAt)
			}
		}
	}
}

func TestQueryEmptyBucketsAndCarry(t *testing.T) {
	s := NewRecorder().Series("sparse")
	// Samples only at t0+10s and t0+11s; query from t0 at 5s steps.
	if err := s.Append(t0.Add(10*time.Second), 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(t0.Add(11*time.Second), 6); err != nil {
		t.Fatal(err)
	}
	q := Query{From: t0, To: t0.Add(20 * time.Second), Step: 5 * time.Second, Agg: AggLast}
	pts, err := s.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// k=0,1 (t0, t0+5s): no data yet. k=2 (t0+10s): 4. k=3, k=4: carry 6.
	wantOK := []bool{false, false, true, true, true}
	wantV := []float64{0, 0, 4, 6, 6}
	for k, p := range pts {
		if p.OK != wantOK[k] || (p.OK && p.Value != wantV[k]) {
			t.Errorf("last bucket %d = (%v, %v), want (%v, %v)", k, p.Value, p.OK, wantV[k], wantOK[k])
		}
	}

	// Windowed aggregates report empty buckets as not-OK, no carry:
	// t0+10s is in bucket 2's window (t0+5s, t0+10s]; t0+11s in bucket 3's.
	q.Agg = AggMean
	pts, err = s.Query(q, pts)
	if err != nil {
		t.Fatal(err)
	}
	wantOK = []bool{false, false, true, true, false}
	for k, p := range pts {
		if p.OK != wantOK[k] {
			t.Errorf("mean bucket %d OK = %v, want %v", k, p.OK, wantOK[k])
		}
	}
	if pts[2].Value != 4 || pts[3].Value != 6 {
		t.Errorf("mean buckets 2,3 = %v, %v; want 4, 6", pts[2].Value, pts[3].Value)
	}
}

func TestQueryWindowEdges(t *testing.T) {
	// A sample exactly on a bucket boundary belongs to the earlier bucket
	// (windows are half-open (start, end]).
	s := NewRecorder().Series("edge")
	if err := s.Append(t0.Add(2*time.Second), 1); err != nil {
		t.Fatal(err)
	}
	q := Query{From: t0, To: t0.Add(4 * time.Second), Step: 2 * time.Second, Agg: AggMax}
	pts, err := s.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pts[1].OK || pts[2].OK {
		t.Errorf("boundary sample must land in bucket 1: got OK = %v, %v", pts[1].OK, pts[2].OK)
	}
}

func TestQueryValidation(t *testing.T) {
	s := NewRecorder().Series("v")
	if _, err := s.Query(Query{From: t0, To: t0.Add(time.Second)}, nil); err == nil {
		t.Error("zero step must be rejected")
	}
	if _, err := s.Query(Query{From: t0, To: t0.Add(time.Second), Step: -time.Second}, nil); err == nil {
		t.Error("negative step must be rejected")
	}
	if _, err := s.Query(Query{From: t0.Add(time.Second), To: t0, Step: time.Second}, nil); err == nil {
		t.Error("inverted window must be rejected")
	}
	// A recycled buffer passed alongside a rejected query comes back
	// untruncated — validation must not clobber the caller's data.
	buf := []QueryPoint{{Value: 42, OK: true}}
	out, err := s.Query(Query{From: t0, To: t0.Add(time.Second)}, buf)
	if err == nil {
		t.Fatal("zero step must be rejected")
	}
	if len(out) != 1 || out[0].Value != 42 {
		t.Errorf("rejected query mangled the caller's buffer: %v", out)
	}
}

// A query over a series that has never seen a sample is not an error: it
// reports the full bucket grid, every bucket empty, under every aggregate.
func TestQueryEmptySeries(t *testing.T) {
	s := NewRecorder().Series("empty")
	q := Query{From: t0, To: t0.Add(10 * time.Second), Step: 2 * time.Second}
	for _, agg := range []Agg{AggLast, AggMin, AggMax, AggMean} {
		q.Agg = agg
		pts, err := s.Query(q, nil)
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		if len(pts) != 6 {
			t.Fatalf("%v: got %d buckets, want 6", agg, len(pts))
		}
		for k, p := range pts {
			if p.OK {
				t.Errorf("%v bucket %d reports data in an empty series", agg, k)
			}
			wantAt := t0.Add(time.Duration(2*k) * time.Second)
			if !p.At.Equal(wantAt) {
				t.Errorf("%v bucket %d at %v, want %v", agg, k, p.At, wantAt)
			}
		}
	}
}

// A query window that ends before the oldest retained sample — e.g. a
// dashboard asking for history the ring has already turned past — yields
// the full bucket grid with every bucket empty. AggLast has no carry to
// offer either: the surviving samples are all after the window, and a
// later sample must never flow backwards into an earlier bucket.
func TestQueryWindowOutsideRetention(t *testing.T) {
	s := NewRecorder().Series("gone")
	s.SetRetention(8)
	for i := 0; i < 100; i++ {
		if err := s.Append(t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Ring now holds t0+92s .. t0+99s; query t0 .. t0+30s, fully evicted.
	q := Query{From: t0, To: t0.Add(30 * time.Second), Step: 5 * time.Second}
	for _, agg := range []Agg{AggLast, AggMin, AggMax, AggMean} {
		q.Agg = agg
		pts, err := s.Query(q, nil)
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		if len(pts) != 7 {
			t.Fatalf("%v: got %d buckets, want 7", agg, len(pts))
		}
		for k, p := range pts {
			if p.OK {
				t.Errorf("%v bucket %d = %v reports data from a fully evicted window", agg, k, p.Value)
			}
		}
	}
}

func TestRecorderQueryUnknownSeries(t *testing.T) {
	r := NewRecorder()
	_, err := r.Query("nope", Query{From: t0, To: t0, Step: time.Second}, nil)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("want wrapped ErrNoSeries naming the series, got %v", err)
	}
	if !errorsIs(err, ErrNoSeries) {
		t.Fatalf("want ErrNoSeries in chain, got %v", err)
	}
	if r.series["nope"] != nil {
		t.Error("Query must not create series as a side effect")
	}
}

// errorsIs avoids importing errors twice in tests split across files.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Bucket boundaries depend only on From/Step, never on which samples
// retention has evicted: the same query against a full-history series and
// a ring that has dropped the early samples reports identical buckets
// wherever the ring still has the window's data.
func TestQueryStableUnderRetentionEviction(t *testing.T) {
	full := NewRecorder().Series("full")
	ring := NewRecorder().Series("ring")
	ring.SetRetention(16)
	for i := 0; i < 100; i++ {
		v := math.Sin(float64(i) / 7)
		if err := full.Append(t0.Add(time.Duration(i)*time.Second), v); err != nil {
			t.Fatal(err)
		}
		if err := ring.Append(t0.Add(time.Duration(i)*time.Second), v); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{From: t0, To: t0.Add(99 * time.Second), Step: 4 * time.Second, Agg: AggMean}
	fp, err := full.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ring.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != len(rp) {
		t.Fatalf("bucket counts differ: %d vs %d", len(fp), len(rp))
	}
	// The ring holds samples 84..99: buckets whose window lies fully in
	// that range must be bit-identical; earlier ring buckets are empty.
	for k := range fp {
		if !fp[k].At.Equal(rp[k].At) {
			t.Fatalf("bucket %d boundary moved under eviction: %v vs %v", k, fp[k].At, rp[k].At)
		}
	}
	lastK := len(fp) - 1
	if !rp[lastK].OK || rp[lastK].Value != fp[lastK].Value {
		t.Errorf("final bucket differs: ring (%v, %v) vs full (%v, %v)",
			rp[lastK].Value, rp[lastK].OK, fp[lastK].Value, fp[lastK].OK)
	}
	if rp[2].OK {
		t.Error("evicted window must report an empty bucket, not shifted data")
	}
}

// WriteCSV is a stack of AggLast queries; its sample-and-hold cells must
// match Series.At at every row instant.
func TestQueryLastMatchesAt(t *testing.T) {
	s := NewRecorder().Series("hold")
	fill(s, t, 10, 20, 30, 40, 50)
	q := Query{From: t0.Add(-2 * time.Second), To: t0.Add(8 * time.Second), Step: 1500 * time.Millisecond, Agg: AggLast}
	pts, err := s.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		v, ok := s.At(p.At)
		if ok != p.OK || (ok && v != p.Value) {
			t.Errorf("at %v: Query (%v, %v) vs At (%v, %v)", p.At, p.Value, p.OK, v, ok)
		}
	}
}

// Steady-state telemetry reads are allocation-free: a query over a
// retained ring into a recycled buffer must not allocate once the buffer
// has grown to the bucket count.
func TestQuerySteadyStateAllocs(t *testing.T) {
	s := NewRecorder().Series("alloc")
	s.SetRetention(64)
	for i := 0; i < 200; i++ {
		if err := s.Append(t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{From: t0.Add(100 * time.Second), To: t0.Add(199 * time.Second), Step: 5 * time.Second, Agg: AggMean}
	buf, err := s.Query(q, nil) // warm the buffer to full bucket capacity
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf, err = s.Query(q, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state Query allocates %.1f/op, want 0", allocs)
	}
}
