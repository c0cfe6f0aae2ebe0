package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Snapshot support: a recorder's contents exported as plain data. Values
// round-trip bit-exactly (the series codec below carries each float64's
// IEEE bits), so a restored recorder's WriteExact output is byte-identical
// to the original's — the property the twin round-trip tests pin.
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

// GobEncode writes the series in a compact form that gob carries as one
// byte string. In order:
//
//   - the name, as a uvarint length and the bytes, and the retention;
//   - the timestamp count, the first timestamp, and then for each later
//     one the change in the sampling interval (the difference between
//     consecutive intervals), all as zigzag varints;
//   - the value count and each value's IEEE bits, 8 bytes little-endian.
//
// A periodic series costs one byte per timestamp, where gob spends nine
// on each Unix-nanosecond int64. Interval arithmetic wraps in int64 both
// ways, so irregular and extreme timestamps round-trip exactly too. Both
// counts travel even when they differ, so malformed state still reaches
// RestoreState's check.
func (ss SeriesState) GobEncode() ([]byte, error) {
	n := len(ss.Nanos)
	b := make([]byte, 0, len(ss.Name)+n+8*len(ss.Values)+5*binary.MaxVarintLen64)
	b = binary.AppendUvarint(b, uint64(len(ss.Name)))
	b = append(b, ss.Name...)
	b = binary.AppendVarint(b, int64(ss.Retention))
	b = binary.AppendUvarint(b, uint64(n))
	if n > 0 {
		b = binary.AppendVarint(b, ss.Nanos[0])
	}
	var step int64
	for i := 1; i < n; i++ {
		d := ss.Nanos[i] - ss.Nanos[i-1]
		b = binary.AppendVarint(b, d-step)
		step = d
	}
	b = binary.AppendUvarint(b, uint64(len(ss.Values)))
	for _, v := range ss.Values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b, nil
}

// GobDecode reads what GobEncode wrote. It checks each count against the
// bytes left before allocating, since a timestamp takes at least one byte
// and a value eight, so a short or hostile input is an error and never a
// huge allocation. Trailing bytes are an error too. Ordering and equal
// column lengths are left to RestoreState's check.
func (ss *SeriesState) GobDecode(data []byte) error {
	r := stateReader{b: data}
	name := string(r.next(r.count(1)))
	retention := r.varint()
	var nanos []int64
	if n := r.count(1); n > 0 {
		nanos = make([]int64, n)
		nanos[0] = r.varint()
		r.timestamps(nanos)
	}
	var values []float64
	if n := r.count(8); n > 0 {
		raw := r.next(8 * n)
		values = make([]float64, n)
		for i := range values {
			values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err == nil && int64(int(retention)) != retention {
		r.err = fmt.Errorf("retention %d overflows int", retention)
	}
	if r.err != nil {
		return fmt.Errorf("trace: decode series %q: %w", name, r.err)
	}
	*ss = SeriesState{Name: name, Retention: int(retention), Nanos: nanos, Values: values}
	return nil
}

var errTruncated = errors.New("truncated")

// stateReader consumes a GobEncode payload. The first error sticks; after
// it every read returns zero values.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.err = errTruncated
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *stateReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Varint(r.b)
	if k <= 0 {
		r.err = errTruncated
		return 0
	}
	r.b = r.b[k:]
	return v
}

// timestamps fills nanos[1:] from the interval changes that follow
// nanos[0]. A periodic series encodes nearly every change as the single
// byte 0x00, so a one-byte zigzag varint (high bit clear) is decoded
// inline, and only a longer one goes through varint.
func (r *stateReader) timestamps(nanos []int64) {
	b := r.b
	t, step := nanos[0], int64(0)
	for i := 1; i < len(nanos); i++ {
		if len(b) > 0 && b[0] < 0x80 {
			x := int64(b[0])
			step += x>>1 ^ -(x & 1)
			b = b[1:]
		} else {
			r.b = b
			step += r.varint()
			if r.err != nil {
				return
			}
			b = r.b
		}
		t += step
		nanos[i] = t
	}
	r.b = b
}

// count reads a length whose entries take at least size bytes each, and
// fails unless that many bytes remain.
func (r *stateReader) count(size int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)/size) {
		r.err = fmt.Errorf("count %d needs at least %d bytes per entry, %d bytes left", n, size, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// next consumes n bytes, which count has checked are there.
func (r *stateReader) next(n int) []byte {
	b := r.b[:n]
	r.b = r.b[n:]
	return b
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
// appending them one by one would. A series whose ring already has the
// state's retention as its capacity, as a rebuilt fleet's sampled series
// do, is refilled in place rather than given a second ring.
func (r *Recorder) RestoreState(st RecorderState) error {
	for i := range st.Series {
		if err := st.Series[i].check(); err != nil {
			return err
		}
	}
	for _, ss := range st.Series {
		s := r.Series(ss.Name)
		ring := s.ring
		s.chunks = nil
		s.retain, s.ring, s.head, s.rlen = 0, nil, 0, 0
		nanos, values := ss.Nanos, ss.Values
		if ss.Retention > 0 {
			if d := len(nanos) - ss.Retention; d > 0 {
				nanos, values = nanos[d:], values[d:]
			}
			if cap(ring) != ss.Retention {
				ring = make([]point, 0, ss.Retention)
			}
			s.ring = ring[:len(nanos)]
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
