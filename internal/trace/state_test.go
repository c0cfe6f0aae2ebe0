package trace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// Export → restore into a fresh recorder reproduces WriteExact output
// byte-for-byte, including ring retention mode and NaN payloads.
func TestRecorderStateRoundTrip(t *testing.T) {
	r := NewRecorder()
	a := r.Series("a")
	b := r.Series("b")
	b.SetRetention(8)
	for i := 0; i < 20; i++ {
		v := math.Sqrt(float64(i)) * 1.0000000000000002
		if err := a.Append(t0.Add(time.Duration(i)*time.Second), v); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(t0.Add(time.Duration(i)*time.Second), -v); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Append(t0.Add(20*time.Second), math.NaN()); err != nil {
		t.Fatal(err)
	}

	st := r.ExportState()
	fresh := NewRecorder()
	// A rebuilt system opens its series (empty) before restore arrives.
	fresh.Series("a")
	fresh.Series("b")
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}

	var want, got strings.Builder
	if err := r.WriteExact(&want); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteExact(&got); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatal("restored recorder WriteExact differs from original")
	}
	if fresh.Series("b").Retention() != 8 {
		t.Errorf("retention = %d, want 8", fresh.Series("b").Retention())
	}

	// The restored ring must keep ring behavior: further appends evict.
	rb := fresh.Series("b")
	if err := rb.Append(t0.Add(30*time.Second), 1); err != nil {
		t.Fatal(err)
	}
	if rb.Len() != 8 {
		t.Errorf("ring len after append = %d, want 8", rb.Len())
	}
}

// Malformed decoded state is rejected with an error, not a panic, and the
// recorder keeps its contents: every series is checked before any is
// written.
func TestRecorderRestoreStateRejects(t *testing.T) {
	ok := SeriesState{Name: "ok", Nanos: []int64{1, 2}, Values: []float64{1, 2}}
	for _, tc := range []struct {
		name string
		bad  SeriesState
		want string
	}{
		{"unequal lengths", SeriesState{Name: "x", Nanos: []int64{1, 2, 3}, Values: []float64{1, 2}}, "3 timestamps but 2 values"},
		{"decreasing nanos", SeriesState{Name: "x", Nanos: []int64{1, 5, 4}, Values: []float64{1, 2, 3}}, "precedes"},
		{"negative retention", SeriesState{Name: "x", Retention: -1}, "negative retention"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder()
			if err := r.Record("ok", t0, 7); err != nil {
				t.Fatal(err)
			}
			var before, after strings.Builder
			if err := r.WriteExact(&before); err != nil {
				t.Fatal(err)
			}
			err := r.RestoreState(RecorderState{Series: []SeriesState{ok, tc.bad}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
			if r.Has("x") {
				t.Error("rejected state created series x")
			}
			if err := r.WriteExact(&after); err != nil {
				t.Fatal(err)
			}
			if before.String() != after.String() {
				t.Errorf("rejected state changed the recorder:\n%s\nvs\n%s", before.String(), after.String())
			}
		})
	}
}

// ExportState allocates per series, never per sample: the same count at 10
// and at 5000 samples per series, at most the series slice plus two
// columns per series.
func TestRecorderExportStateAllocs(t *testing.T) {
	const series = 3
	allocs := func(points int) float64 {
		r := NewRecorder()
		r.Series("c").SetRetention(6000)
		for _, name := range []string{"a", "b", "c"} {
			s := r.Series(name)
			for i := 0; i < points; i++ {
				if err := s.Append(t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return testing.AllocsPerRun(20, func() { _ = r.ExportState() })
	}
	small, large := allocs(10), allocs(5000)
	if small != large || large > 1+2*series {
		t.Fatalf("ExportState allocs = %v at 10 points, %v at 5000; want equal and <= %d", small, large, 1+2*series)
	}
}

// A wrapped ring holding a NaN with a non-default payload survives a gob
// round trip: same WriteExact bytes, same value bits, and the same
// eviction order under further appends.
func TestRecorderStateGobWrappedRing(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
	r := NewRecorder()
	s := r.Series("ring")
	s.SetRetention(5)
	for i := 0; i < 13; i++ {
		v := float64(i) / 3
		if i == 11 {
			v = nan
		}
		if err := s.Append(at(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if s.head == 0 {
		t.Fatal("ring has not wrapped; the test needs head != 0")
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r.ExportState()); err != nil {
		t.Fatal(err)
	}
	var st RecorderState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	fresh := NewRecorder()
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	rs := fresh.Series("ring")
	if rs.Retention() != 5 {
		t.Fatalf("retention = %d, want 5", rs.Retention())
	}

	same := func(stage string) {
		t.Helper()
		var want, got strings.Builder
		if err := r.WriteExact(&want); err != nil {
			t.Fatal(err)
		}
		if err := fresh.WriteExact(&got); err != nil {
			t.Fatal(err)
		}
		if want.String() != got.String() {
			t.Fatalf("%s: WriteExact differs:\n%s\nvs\n%s", stage, want.String(), got.String())
		}
		if s.Len() != rs.Len() {
			t.Fatalf("%s: len %d vs %d", stage, s.Len(), rs.Len())
		}
		for i := 0; i < s.Len(); i++ {
			if a, b := math.Float64bits(s.at(i).value), math.Float64bits(rs.at(i).value); a != b {
				t.Fatalf("%s: sample %d bits %#x, want %#x", stage, i, b, a)
			}
		}
	}
	same("restored")
	for i := 13; i < 16; i++ {
		if err := s.Append(at(i), float64(-i)); err != nil {
			t.Fatal(err)
		}
		if err := rs.Append(at(i), float64(-i)); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("after append %d", i))
	}
}
