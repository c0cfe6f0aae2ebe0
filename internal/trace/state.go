package trace

import "fmt"

// Snapshot support: a recorder's contents exported as plain data. Values
// round-trip bit-exactly (float64 payloads are carried as-is; encoders like
// gob preserve the bit pattern), so a restored recorder's WriteExact output
// is byte-identical to the original's — the property the twin round-trip
// tests pin.
//
// Samples travel as two pointer-free columns in the recorder's own internal
// representation, Unix nanoseconds and values, not as []Point: a time.Time
// per sample would cost gob one GobEncode/GobDecode call and one small
// allocation each way, enough to dominate a fleet checkpoint.

// SeriesState is one series' captured contents in time order, plus its
// retention mode. Values[i] was sampled at Nanos[i].
//
//bzlint:state ExportState RestoreState
type SeriesState struct {
	Name      string
	Retention int       // ring capacity; 0 for unbounded chunked storage
	Nanos     []int64   // sample times, Unix nanoseconds, non-decreasing
	Values    []float64 // sample values, same length as Nanos
}

// RecorderState is every series in creation order.
//
//bzlint:state ExportState RestoreState
type RecorderState struct {
	Series []SeriesState
}

// ExportState captures all series, in creation order, with their retained
// samples. It allocates two columns per series and nothing per sample.
func (r *Recorder) ExportState() RecorderState {
	st := RecorderState{Series: make([]SeriesState, len(r.order))}
	for i, name := range r.order {
		s := r.series[name]
		n := s.Len()
		ss := SeriesState{
			Name:      name,
			Retention: s.retain,
			Nanos:     make([]int64, n),
			Values:    make([]float64, n),
		}
		k := 0
		if s.retain > 0 {
			// Oldest sample at head; a ring that has not wrapped has head 0.
			k = exportPoints(ss.Nanos, ss.Values, k, s.ring[s.head:])
			exportPoints(ss.Nanos, ss.Values, k, s.ring[:s.head])
		} else {
			for _, c := range s.chunks {
				k = exportPoints(ss.Nanos, ss.Values, k, c)
			}
		}
		st.Series[i] = ss
	}
	return st
}

// exportPoints copies pts into the columns from index k on and returns the
// index after the last one written.
func exportPoints(nanos []int64, values []float64, k int, pts []point) int {
	nanos, values = nanos[k:k+len(pts)], values[k:k+len(pts)]
	for j, p := range pts {
		nanos[j], values[j] = p.nanos, p.value
	}
	return k + len(pts)
}

// check reports why the state cannot be restored: columns of unequal
// length, a decreasing timestamp, or a negative retention.
func (ss *SeriesState) check() error {
	if ss.Retention < 0 {
		return fmt.Errorf("trace: restore series %q: negative retention %d", ss.Name, ss.Retention)
	}
	if len(ss.Nanos) != len(ss.Values) {
		return fmt.Errorf("trace: restore series %q: %d timestamps but %d values",
			ss.Name, len(ss.Nanos), len(ss.Values))
	}
	for i := 1; i < len(ss.Nanos); i++ {
		if ss.Nanos[i] < ss.Nanos[i-1] {
			return fmt.Errorf("trace: restore series %q: sample %d at %d ns precedes sample %d at %d ns",
				ss.Name, i, ss.Nanos[i], i-1, ss.Nanos[i-1])
		}
	}
	return nil
}

// RestoreState replaces each named series' contents and retention with the
// captured ones, creating series as needed. Series the recorder already
// holds but the state does not are left untouched (a rebuilt system opens
// its series empty before restore, so in practice the state covers them
// all). Every series is checked before any is written, so a malformed
// state returns an error and leaves the recorder as it was. A ring state
// holding more samples than its retention keeps the most recent ones, as
// appending them one by one would.
func (r *Recorder) RestoreState(st RecorderState) error {
	for i := range st.Series {
		if err := st.Series[i].check(); err != nil {
			return err
		}
	}
	for _, ss := range st.Series {
		s := r.Series(ss.Name)
		s.chunks, s.spare = nil, nil
		s.retain, s.ring, s.head, s.rlen = 0, nil, 0, 0
		nanos, values := ss.Nanos, ss.Values
		if ss.Retention > 0 {
			if d := len(nanos) - ss.Retention; d > 0 {
				nanos, values = nanos[d:], values[d:]
			}
			s.ring = make([]point, len(nanos), ss.Retention)
			restorePoints(s.ring, nanos, values)
			s.retain, s.rlen = ss.Retention, len(nanos)
			continue
		}
		for off := 0; off < len(nanos); off += chunkSize {
			m := min(chunkSize, len(nanos)-off)
			c := make([]point, m, chunkSize)
			restorePoints(c, nanos[off:off+m], values[off:off+m])
			s.chunks = append(s.chunks, c)
		}
	}
	return nil
}

// restorePoints fills pts from the columns, which are at least as long.
func restorePoints(pts []point, nanos []int64, values []float64) {
	nanos, values = nanos[:len(pts)], values[:len(pts)]
	for j := range pts {
		pts[j] = point{nanos: nanos[j], value: values[j]}
	}
}
