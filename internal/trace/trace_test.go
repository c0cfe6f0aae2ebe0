package trace

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)

func TestSeriesAppendOrdered(t *testing.T) {
	s := NewRecorder().Series("temp")
	if err := s.Append(t0, 25); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(t0.Add(time.Second), 26); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(t0.Add(time.Second), 26.5); err != nil {
		t.Fatalf("equal-time append should be allowed: %v", err)
	}
	if err := s.Append(t0, 24); err == nil {
		t.Fatal("out-of-order append should fail")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestSeriesAt(t *testing.T) {
	s := NewRecorder().Series("x")
	for i := 0; i < 5; i++ {
		if err := s.Append(t0.Add(time.Duration(i)*10*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		offset time.Duration
		want   float64
		ok     bool
	}{
		{-time.Second, 0, false},
		{0, 0, true},
		{5 * time.Second, 0, true},
		{10 * time.Second, 1, true},
		{39 * time.Second, 3, true},
		{time.Hour, 4, true},
	}
	for _, tc := range tests {
		got, ok := s.At(t0.Add(tc.offset))
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("At(+%v) = %v,%v, want %v,%v", tc.offset, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSeriesLast(t *testing.T) {
	s := NewRecorder().Series("x")
	if _, ok := s.Last(); ok {
		t.Error("Last on empty series should report !ok")
	}
	_ = s.Append(t0, 1)
	_ = s.Append(t0.Add(time.Second), 2)
	if v, ok := s.Last(); !ok || v != 2 {
		t.Errorf("Last = %v,%v, want 2,true", v, ok)
	}
}

func TestSeriesStats(t *testing.T) {
	s := NewRecorder().Series("x")
	for i, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		_ = s.Append(t0.Add(time.Duration(i)*time.Second), v)
	}
	st := s.Stats()
	if st.N != 8 || st.Min != 2 || st.Max != 9 {
		t.Errorf("Stats = %+v, want N=8 Min=2 Max=9", st)
	}
	if math.Abs(st.Mean-5) > 1e-9 {
		t.Errorf("Mean = %v, want 5", st.Mean)
	}
	if math.Abs(st.Std-2) > 1e-9 {
		t.Errorf("Std = %v, want 2", st.Std)
	}
}

func TestStatsEmpty(t *testing.T) {
	s := NewRecorder().Series("x")
	if st := s.Stats(); st.N != 0 || st.Min != 0 || st.Max != 0 {
		t.Errorf("empty Stats = %+v, want zero value", st)
	}
}

func TestStatsBetween(t *testing.T) {
	s := NewRecorder().Series("x")
	for i := 0; i < 10; i++ {
		_ = s.Append(t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	st := s.StatsBetween(t0.Add(2*time.Minute), t0.Add(5*time.Minute))
	if st.N != 4 || st.Min != 2 || st.Max != 5 {
		t.Errorf("StatsBetween = %+v, want N=4 Min=2 Max=5", st)
	}
}

func TestFirstCrossing(t *testing.T) {
	s := NewRecorder().Series("temp")
	// Descending from 28.9 toward 25.
	for i := 0; i <= 40; i++ {
		_ = s.Append(t0.Add(time.Duration(i)*time.Minute), 28.9-float64(i)*0.15)
	}
	at, ok := s.FirstCrossing(25.0, true)
	if !ok {
		t.Fatal("no crossing found")
	}
	want := t0.Add(26 * time.Minute) // 28.9 - 26*0.15 = 25.0
	if !at.Equal(want) {
		t.Errorf("crossing at %v, want %v", at, want)
	}
	if _, ok := s.FirstCrossing(10, true); ok {
		t.Error("found impossible crossing")
	}
	// Ascending crossing on the same series must be immediate (starts at 28.9 >= 26).
	at, ok = s.FirstCrossing(26, false)
	if !ok || !at.Equal(t0) {
		t.Errorf("ascending crossing = %v,%v, want t0,true", at, ok)
	}
}

func TestRecorderSeriesIdentityAndNames(t *testing.T) {
	r := NewRecorder()
	a := r.Series("a")
	b := r.Series("b")
	if r.Series("a") != a || r.Series("b") != b {
		t.Error("Series did not return the same instance on repeat lookup")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
	if r.series["a"] == nil || r.series["zzz"] != nil {
		t.Error("Has misreports series existence")
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	for i := 0; i <= 4; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		if err := r.Series("temp").Append(at, 25+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	err := r.WriteCSV(&sb, []string{"temp", "missing"}, t0, t0.Add(2*time.Second), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), sb.String())
	}
	if lines[0] != "elapsed_s,temp,missing" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.0,25.0000,") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.HasSuffix(lines[1], ",") {
		t.Errorf("missing series should render empty cell: %q", lines[1])
	}
}

// rowByRowCSV is the CSV export as it was first written, kept as the
// reference the blocked writer must match byte for byte: one full-window
// AggLast query per column, and every row built by string concatenation.
func rowByRowCSV(r *Recorder, names []string, from, to time.Time, period time.Duration) (string, error) {
	var w strings.Builder
	header := "elapsed_s"
	for _, n := range names {
		header += "," + n
	}
	fmt.Fprintln(&w, header)
	if to.Before(from) {
		return w.String(), nil
	}
	q := Query{From: from, To: to, Step: period, Agg: AggLast}
	cols := make([][]QueryPoint, len(names))
	for i, n := range names {
		s, ok := r.series[n]
		if !ok {
			continue
		}
		pts, err := s.Query(q, nil)
		if err != nil {
			return "", err
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
		fmt.Fprintln(&w, row)
	}
	return w.String(), nil
}

// WriteCSV's blocks and reused buffers change no byte: windows that start
// before, inside and after the data, span several row blocks and flushes,
// and read a wrapped ring, chunked history past a chunk boundary, an
// unknown series and a repeated one all match the row-by-row reference.
func TestWriteCSVMatchesRowByRow(t *testing.T) {
	r := NewRecorder()
	ring := r.Series("ring")
	ring.SetRetention(500)
	long := r.Series("long")
	for i := 0; i < chunkSize+700; i++ {
		at := t0.Add(time.Duration(i) * 3 * time.Second)
		if err := long.Append(at, math.Sin(float64(i))*30); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := ring.Append(at, float64(i)/7); err != nil {
				t.Fatal(err)
			}
		}
	}
	names := []string{"ring", "missing", "long", "ring"}
	for _, tc := range []struct {
		name     string
		from, to time.Time
		period   time.Duration
	}{
		{"before the data", t0.Add(-time.Hour), t0.Add(time.Hour), 7 * time.Second},
		{"every row block", t0, t0.Add(30 * time.Hour), 10 * time.Second},
		{"late window", t0.Add(20 * time.Hour), t0.Add(21 * time.Hour), 1500 * time.Millisecond},
		{"after the data", t0.Add(40 * time.Hour), t0.Add(41 * time.Hour), time.Minute},
		{"one row", t0.Add(time.Hour), t0.Add(time.Hour), time.Second},
		{"inverted", t0.Add(time.Hour), t0, time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := rowByRowCSV(r, names, tc.from, tc.to, tc.period)
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			if err := r.WriteCSV(&got, names, tc.from, tc.to, tc.period); err != nil {
				t.Fatal(err)
			}
			if got.String() != want {
				t.Fatalf("WriteCSV differs from the row-by-row reference (%d vs %d bytes)", got.Len(), len(want))
			}
		})
	}
}

// A query that starts late in a long series skips the history before it
// and still matches the same buckets read from a window that starts at
// the first sample, in every aggregate.
func TestQueryLateWindowMatchesFullSweep(t *testing.T) {
	s := NewRecorder().Series("q")
	for i := 0; i < 3*chunkSize; i++ {
		if err := s.Append(t0.Add(time.Duration(i/3)*time.Second), float64(i%17)); err != nil {
			t.Fatal(err)
		}
	}
	const skip = 5000 // buckets between the two windows' starts
	for _, agg := range []Agg{AggLast, AggMin, AggMax, AggMean} {
		full, err := s.Query(Query{From: t0, To: t0.Add(9000 * time.Second), Step: time.Second, Agg: agg}, nil)
		if err != nil {
			t.Fatal(err)
		}
		late, err := s.Query(Query{From: t0.Add(skip * time.Second), To: t0.Add(9000 * time.Second), Step: time.Second, Agg: agg}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range late {
			if k == 0 && agg != AggLast {
				continue // bucket 0 covers only its own instant
			}
			if q := full[skip+k]; p != q {
				t.Fatalf("%v bucket %d: late window %+v, full window %+v", agg, k, p, q)
			}
		}
	}
}

func TestWriteCSVRejectsBadPeriod(t *testing.T) {
	r := NewRecorder()
	var sb strings.Builder
	if err := r.WriteCSV(&sb, nil, t0, t0.Add(time.Second), 0); err == nil {
		t.Error("zero period should error")
	}
}

func TestCDF(t *testing.T) {
	xs, ps := CDF([]float64{2, 2, 64, 4, 2, 64})
	wantXs := []float64{2, 4, 64}
	wantPs := []float64{0.5, 4.0 / 6.0, 1}
	if len(xs) != len(wantXs) {
		t.Fatalf("xs = %v, want %v", xs, wantXs)
	}
	for i := range wantXs {
		if xs[i] != wantXs[i] || math.Abs(ps[i]-wantPs[i]) > 1e-12 {
			t.Errorf("CDF[%d] = (%v,%v), want (%v,%v)", i, xs[i], ps[i], wantXs[i], wantPs[i])
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	xs, ps := CDF(nil)
	if xs != nil || ps != nil {
		t.Errorf("CDF(nil) = %v,%v, want nil,nil", xs, ps)
	}
}

// Property: CDF xs are strictly increasing, ps non-decreasing and end at 1.
func TestCDFWellFormedProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v % 16)
		}
		xs, ps := CDF(vals)
		if !sort.Float64sAreSorted(xs) {
			return false
		}
		for i := 1; i < len(xs); i++ {
			if xs[i] == xs[i-1] || ps[i] < ps[i-1] {
				return false
			}
		}
		return math.Abs(ps[len(ps)-1]-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Stats.Min <= Mean <= Max for any non-empty series.
func TestStatsOrderingProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewRecorder().Series("x")
		for i, v := range raw {
			_ = s.Append(t0.Add(time.Duration(i)*time.Second), float64(v))
		}
		st := s.Stats()
		return st.Min <= st.Mean+1e-9 && st.Mean <= st.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Appends inside the open chunk allocate nothing: the first Append opens
// an 8,192-point chunk, and the measured appends (plus AllocsPerRun's
// warm-up call) all fit in it.
func TestAppendWithinChunkAllocationFree(t *testing.T) {
	s := NewRecorder().Series("x")
	const n = 1000
	if err := s.Append(t0, 0); err != nil {
		t.Fatal(err)
	}
	i := 1
	allocs := testing.AllocsPerRun(n, func() {
		_ = s.Append(t0.Add(time.Duration(i)*time.Second), float64(i))
		i++
	})
	if allocs != 0 {
		t.Errorf("Append within the open chunk allocates %.1f/op, want 0", allocs)
	}
	if s.Len() < n {
		t.Errorf("Len = %d after %d appends", s.Len(), n)
	}
}
