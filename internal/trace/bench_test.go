package trace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
	"time"
)

var benchT0 = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)

// BenchmarkSeriesAppend measures the amortized cost of growing a series
// one sample at a time — the simulator's per-tick recording primitive.
// The geometric growth of the backing array keeps allocs/op near zero.
func BenchmarkSeriesAppend(b *testing.B) {
	s := NewRecorder().Series("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(benchT0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeriesAppendPregrown measures the strictly allocation-free
// path: capacity reserved via Grow before the loop, as the core trace
// recorder does for a known horizon.
func BenchmarkSeriesAppendPregrown(b *testing.B) {
	s := NewRecorder().Series("bench")
	s.Grow(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(benchT0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecorderStateGob measures one building's trace checkpoint:
// ExportState, gob encode, gob decode and RestoreState of 23 full,
// wrapped 960-sample rings — the shape a fleet's sampled buildings carry
// in a twin snapshot.
func BenchmarkRecorderStateGob(b *testing.B) {
	const series, retain = 23, 960
	r := NewRecorder()
	for k := 0; k < series; k++ {
		s := r.Series(fmt.Sprintf("s%02d", k))
		s.SetRetention(retain)
		for i := 0; i < retain+100; i++ {
			if err := s.Append(benchT0.Add(time.Duration(i)*time.Second), float64(i*k)); err != nil {
				b.Fatal(err)
			}
		}
	}
	fresh := NewRecorder()
	var buf bytes.Buffer
	size := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(r.ExportState()); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		var st RecorderState
		if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
			b.Fatal(err)
		}
		if err := fresh.RestoreState(st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "gob-bytes")
}

// BenchmarkRecorderRecord measures the convenience string-keyed path for
// contrast: every sample pays a map lookup on the series name. Hot loops
// should Open once and Append instead.
func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Record("bench", benchT0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
