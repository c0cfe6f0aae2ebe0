package trace

import (
	"math"
	"sort"
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
	if !r.Has("a") || r.Has("zzz") {
		t.Error("Has misreports series existence")
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	for i := 0; i <= 4; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		if err := r.Record("temp", at, 25+float64(i)); err != nil {
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

func TestGrowMakesAppendAllocationFree(t *testing.T) {
	s := NewRecorder().Series("x")
	const n = 1000
	s.Grow(n + 1) // AllocsPerRun warms up with one extra call
	i := 0
	allocs := testing.AllocsPerRun(n, func() {
		_ = s.Append(t0.Add(time.Duration(i)*time.Second), float64(i))
		i++
	})
	if allocs != 0 {
		t.Errorf("Append after Grow allocates %.1f/op, want 0", allocs)
	}
	if s.Len() < n {
		t.Errorf("Len = %d after %d appends", s.Len(), n)
	}
	// Growing an already-roomy series is a no-op.
	before := s.Len()
	s.Grow(0)
	s.Grow(-5)
	if s.Len() != before {
		t.Error("Grow must not change the sample count")
	}
}
