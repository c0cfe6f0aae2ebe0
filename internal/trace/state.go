package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Snapshot support: a recorder's contents exported as plain data. Values
// round-trip bit-exactly (the series codec below carries each float64's
// IEEE bits), so a restored recorder's WriteExact output is byte-identical
// to the original's — the property the twin round-trip tests pin.
//
// A series state carries its samples as the codec's own bytes, written
// straight from the ring or chunks by ExportState and read straight back
// into them by RestoreState. A fleet checkpoint is almost all trace
// samples, and columns on either side of the codec would copy each
// sample once more on the way out and once more on the way in.

// SeriesState is one series' captured contents in time order, plus its
// retention mode. Only ExportState and GobDecode build a state that holds
// samples, and neither builds one RestoreState cannot restore; a literal
// SeriesState is an empty series.
//
// The payload repeats Name and Retention, and it is what GobEncode sends.
// RestoreState reads the fields, so a state edited in memory restores as
// edited, but GobEncode refuses a state whose fields no longer match its
// payload rather than send what memory does not hold.
//
//bzlint:state ExportState RestoreState
type SeriesState struct {
	Name      string
	Retention int // ring capacity; 0 for unbounded chunked storage
	// data is the GobEncode payload, Name and Retention included, or nil
	// for a literal's empty series.
	data []byte
	// Gob describes the exported fields of a type that encodes itself, in
	// the stream's type preamble, although it never sends them. The
	// version-3 preamble describes an []int64 here, the type of a column
	// this state once carried, so this field keeps that description, and
	// a snapshot's bytes with it (TestFullRingSnapshotBytes). It is
	// always nil.
	//
	//bzlint:allow statecov never set or sent; it holds version 3's type preamble, not state
	Preamble []int64
}

// RecorderState is every series in creation order.
//
//bzlint:state ExportState RestoreState
type RecorderState struct {
	Series []SeriesState
}

// ExportState captures all series, in creation order, with their retained
// samples. It allocates one payload per series and nothing per sample.
func (r *Recorder) ExportState() RecorderState {
	st := RecorderState{Series: make([]SeriesState, len(r.order))}
	for i, name := range r.order {
		s := r.series[name]
		st.Series[i] = SeriesState{Name: name, Retention: s.retain, data: s.encode()}
	}
	return st
}

// encode writes the series' GobEncode payload from its storage. Its
// capacity fits a series whose interval changes each take one byte, as a
// periodic series' do.
func (s *Series) encode() []byte {
	n := s.Len()
	b := appendHead(make([]byte, 0, len(s.name)+9*n+4*binary.MaxVarintLen64), s.name, s.retain, n)
	// The samples in time order: the chunks, or a ring's two halves,
	// oldest at head. Whenever the series holds a sample, the first
	// segment does.
	segs := s.chunks
	if s.retain > 0 {
		segs = [][]point{s.ring[s.head:], s.ring[:s.head]}
	}
	if n > 0 {
		prev, step := segs[0][0].nanos, int64(0)
		b = binary.AppendVarint(b, prev)
		for i, seg := range segs {
			if i == 0 {
				seg = seg[1:] // the first sample, written above
			}
			for _, p := range seg {
				d := p.nanos - prev
				// A change from -64 to 63 is one zigzag byte.
				if c := d - step; uint64(c+64) < 128 {
					b = append(b, byte(c<<1^c>>63))
				} else {
					b = binary.AppendVarint(b, c)
				}
				prev, step = p.nanos, d
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	k := len(b)
	b = slices.Grow(b, 8*n)[:k+8*n]
	for _, seg := range segs {
		for _, p := range seg {
			binary.LittleEndian.PutUint64(b[k:k+8], math.Float64bits(p.value))
			k += 8
		}
	}
	return b
}

// appendHead appends the payload's name, retention and timestamp count.
func appendHead(b []byte, name string, retention, n int) []byte {
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendVarint(b, int64(retention))
	return binary.AppendUvarint(b, uint64(n))
}

// GobEncode returns the series in a compact form that gob carries as one
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
// ways, so irregular and extreme timestamps round-trip exactly too. The
// payload is the one ExportState or GobDecode made, returned as it is
// once its name and retention are checked against the fields.
func (ss SeriesState) GobEncode() ([]byte, error) {
	if ss.data == nil {
		return binary.AppendUvarint(appendHead(nil, ss.Name, ss.Retention, 0), 0), nil
	}
	if name, retention, _ := splitHead(ss.data); string(name) != ss.Name || retention != int64(ss.Retention) {
		return nil, fmt.Errorf("trace: encode series %q with retention %d: its samples were captured as %q with retention %d",
			ss.Name, ss.Retention, name, retention)
	}
	return ss.data, nil
}

// GobDecode checks what GobEncode wrote and keeps one copy of it, since
// gob owns data. It checks each count against the bytes left before
// reading on, since a timestamp takes at least one byte and a value
// eight, so a short or hostile input is an error and never a huge
// allocation. Equal counts, non-decreasing timestamps and a retention
// that is non-negative and fits in an int are checked too, and trailing
// bytes are an error, so RestoreState never meets a state it cannot
// restore.
func (ss *SeriesState) GobDecode(data []byte) error {
	r := stateReader{b: data}
	name := string(r.next(r.count(1)))
	retention := r.varint()
	n := r.count(1)
	if n > 0 {
		r.timestamps(n)
	}
	if m := r.count(8); r.err == nil && m != n {
		r.err = fmt.Errorf("%d timestamps but %d values", n, m)
	} else if r.err == nil {
		r.next(8 * m)
	}
	switch {
	case r.err != nil:
	case len(r.b) > 0:
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	case retention < 0:
		r.err = fmt.Errorf("negative retention %d", retention)
	case int64(int(retention)) != retention:
		r.err = fmt.Errorf("retention %d overflows int", retention)
	}
	if r.err != nil {
		return fmt.Errorf("trace: decode series %q: %w", name, r.err)
	}
	*ss = SeriesState{Name: name, Retention: int(retention), data: bytes.Clone(data)}
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

// timestamps reads n timestamps, the first one and the interval changes
// that follow it, and checks that none precedes the one before. A
// periodic series encodes nearly every change as the single byte 0x00, so
// a one-byte zigzag varint (high bit clear) is decoded inline, and only a
// longer one goes through varint.
func (r *stateReader) timestamps(n int) {
	t := r.varint()
	if r.err != nil {
		return
	}
	b, step := r.b, int64(0)
	for i := 1; i < n; i++ {
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
		next := t + step
		if next < t {
			r.err = fmt.Errorf("sample %d at %d ns precedes sample %d at %d ns", i, next, i-1, t)
			return
		}
		t = next
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

// samples reads the samples of a payload that ExportState or GobDecode
// made, and so does not check them again.
type samples struct {
	n       int    // samples in the payload
	ts      []byte // the interval changes not yet read
	vals    []byte // the values not yet read, 8 bytes each
	t, step int64  // the last timestamp read and the interval before it
	started bool   // whether the first sample has been read
}

// splitHead splits a payload that ExportState or GobDecode made into its
// name, its retention and the rest, which starts at the timestamp count.
func splitHead(data []byte) (name []byte, retention int64, rest []byte) {
	nameLen, k := binary.Uvarint(data)
	name, data = data[k:k+int(nameLen)], data[k+int(nameLen):]
	retention, k = binary.Varint(data)
	return name, retention, data[k:]
}

// readSamples positions a reader at data's first sample; nil data holds
// none.
func readSamples(data []byte) samples {
	if len(data) == 0 {
		return samples{}
	}
	_, _, data = splitHead(data)
	n, k := binary.Uvarint(data)
	data = data[k:]
	d := samples{n: int(n), vals: data[len(data)-8*int(n):]}
	if n > 0 {
		d.t, k = binary.Varint(data)
		d.ts = data[k:]
	}
	return d
}

// fill reads the next len(pts) samples into pts.
func (d *samples) fill(pts []point) {
	if len(pts) == 0 {
		return
	}
	b, vals, t, step := d.ts, d.vals, d.t, d.step
	j := 0
	if !d.started {
		pts[0] = point{nanos: t, value: math.Float64frombits(binary.LittleEndian.Uint64(vals))}
		vals = vals[8:]
		j, d.started = 1, true
	}
	for ; j < len(pts); j++ {
		if b[0] < 0x80 {
			x := int64(b[0])
			step += x>>1 ^ -(x & 1)
			b = b[1:]
		} else {
			c, k := binary.Varint(b)
			step += c
			b = b[k:]
		}
		t += step
		pts[j] = point{nanos: t, value: math.Float64frombits(binary.LittleEndian.Uint64(vals))}
		vals = vals[8:]
	}
	d.ts, d.vals, d.t, d.step = b, vals, t, step
}

// skip reads past the next k samples.
func (d *samples) skip(k int) {
	var buf [64]point
	for k > 0 {
		m := min(k, len(buf))
		d.fill(buf[:m])
		k -= m
	}
}

// RestoreState replaces each named series' contents and retention with the
// captured ones, creating series as needed. Series the recorder already
// holds but the state does not are left untouched (a rebuilt system opens
// its series empty before restore, so in practice the state covers them
// all). Each series is filled from its payload in one pass. A ring state
// holding more samples than its retention keeps the most recent ones, as
// appending them one by one would. A series whose ring already has the
// state's retention as its capacity, as a rebuilt fleet's sampled series
// do, is refilled in place rather than given a second ring.
func (r *Recorder) RestoreState(st RecorderState) {
	for _, ss := range st.Series {
		s := r.Series(ss.Name)
		d := readSamples(ss.data)
		ring := s.ring
		s.chunks = nil
		s.retain, s.ring, s.head, s.rlen = 0, nil, 0, 0
		if ss.Retention > 0 {
			d.skip(d.n - ss.Retention)
			n := min(d.n, ss.Retention)
			if cap(ring) != ss.Retention {
				ring = make([]point, 0, ss.Retention)
			}
			s.ring = ring[:n]
			d.fill(s.ring)
			s.retain, s.rlen = ss.Retention, n
			continue
		}
		for off := 0; off < d.n; off += chunkSize {
			c := make([]point, min(chunkSize, d.n-off), chunkSize)
			d.fill(c)
			s.chunks = append(s.chunks, c)
		}
	}
}
