package trace

import (
	"strings"
	"testing"
	"time"
)

var retT0 = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)

func appendN(t *testing.T, s *Series, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if err := s.Append(retT0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSetRetentionKeepsMostRecentWindow(t *testing.T) {
	s := NewRecorder().Series("win")
	appendN(t, s, 0, 10)
	s.SetRetention(4)
	if got := s.Len(); got != 4 {
		t.Fatalf("Len after SetRetention(4) = %d, want 4", got)
	}
	pts := s.Points()
	for i, p := range pts {
		if want := float64(6 + i); p.Value != want {
			t.Errorf("point %d = %v, want %v", i, p.Value, want)
		}
	}
	// Wrap the ring several times; the window must slide.
	appendN(t, s, 10, 11)
	pts = s.Points()
	if len(pts) != 4 {
		t.Fatalf("Len after wrap = %d, want 4", len(pts))
	}
	for i, p := range pts {
		if want := float64(17 + i); p.Value != want {
			t.Errorf("wrapped point %d = %v, want %v", i, p.Value, want)
		}
	}
	if v, ok := s.Last(); !ok || v != 20 {
		t.Errorf("Last = %v, %v, want 20, true", v, ok)
	}
	// Readers over the ring: stats, crossings, time queries, exact dump.
	st := s.Stats()
	if st.N != 4 || st.Min != 17 || st.Max != 20 {
		t.Errorf("Stats = %+v, want N=4 min=17 max=20", st)
	}
	if at, ok := s.FirstCrossing(19, false); !ok || at != retT0.Add(19*time.Second) {
		t.Errorf("FirstCrossing(19) = %v, %v", at, ok)
	}
	if v, ok := s.At(retT0.Add(18500 * time.Millisecond)); !ok || v != 18 {
		t.Errorf("At(18.5s) = %v, %v, want 18, true", v, ok)
	}
	st = s.StatsBetween(retT0.Add(18*time.Second), retT0.Add(19*time.Second))
	if st.N != 2 || st.Mean != 18.5 {
		t.Errorf("StatsBetween = %+v, want N=2 mean=18.5", st)
	}
}

func TestSetRetentionZeroRestoresUnbounded(t *testing.T) {
	s := NewRecorder().Series("back")
	s.SetRetention(3)
	appendN(t, s, 0, 8) // ring holds 5, 6, 7
	s.SetRetention(0)
	if got := s.retain; got != 0 {
		t.Fatalf("Retention = %d, want 0", got)
	}
	appendN(t, s, 8, 4)
	pts := s.Points()
	want := []float64{5, 6, 7, 8, 9, 10, 11}
	if len(pts) != len(want) {
		t.Fatalf("Len = %d, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if p.Value != want[i] {
			t.Errorf("point %d = %v, want %v", i, p.Value, want[i])
		}
	}
}

func TestRetentionRejectsOutOfOrderAcrossWrap(t *testing.T) {
	s := NewRecorder().Series("order")
	s.SetRetention(2)
	appendN(t, s, 0, 5)
	if err := s.Append(retT0.Add(3*time.Second), 3); err == nil {
		t.Error("out-of-order append into a wrapped ring was accepted")
	}
}

func TestWriteExactCoversRingSeries(t *testing.T) {
	r := NewRecorder()
	s := r.Series("ring")
	s.SetRetention(2)
	appendN(t, s, 0, 4)
	var sb strings.Builder
	if err := r.WriteExact(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("WriteExact emitted %d lines, want 2 (ring window)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "ring ") {
		t.Errorf("unexpected line %q", lines[0])
	}
}

// TestRecorderRecordZeroAlloc pins the recording hot path: through the
// string-keyed Series lookup, an unbounded series and a retained ring
// series must both append with zero allocations per call — the ring by
// reusing its slots, the chunked series by filling its open chunk, which
// one warm-up sample opens with room for every measured append. A
// regression here (a new box, a map rehash on the lookup path, a chunk
// alloc inside the measured window) fails hard.
func TestRecorderRecordZeroAlloc(t *testing.T) {
	const rounds = 1000

	r := NewRecorder()
	if err := r.Series("grown").Append(retT0, 0); err != nil {
		t.Fatal(err)
	}
	i := 1
	allocs := testing.AllocsPerRun(rounds, func() {
		if err := r.Series("grown").Append(retT0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Record on an open-chunk series allocates %.2f per op, want 0", allocs)
	}

	ring := r.Series("ring")
	ring.SetRetention(64)
	// Fill past capacity first so the measured window is pure slot reuse.
	appendN(t, ring, 0, 200)
	j := 200
	allocs = testing.AllocsPerRun(rounds, func() {
		if err := r.Series("ring").Append(retT0.Add(time.Duration(j)*time.Second), float64(j)); err != nil {
			t.Fatal(err)
		}
		j++
	})
	if allocs != 0 {
		t.Errorf("Record on a retained ring series allocates %.2f per op, want 0 (slot reuse)", allocs)
	}
}
