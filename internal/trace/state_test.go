package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"runtime"
	"slices"
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
	fresh.RestoreState(st)

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
	if fresh.Series("b").retain != 8 {
		t.Errorf("retention = %d, want 8", fresh.Series("b").retain)
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

// Malformed state is rejected with an error, not a panic, and the
// recorder keeps its contents: GobDecode checks every series, so a
// checkpoint that carries a malformed one never reaches RestoreState.
func TestRecorderRestoreStateRejects(t *testing.T) {
	ok := stateOf(t, "ok", 0, []int64{1, 2}, []float64{1, 2})
	for _, tc := range []struct {
		name      string
		retention int
		bad       []byte
		want      string
	}{
		{"unequal lengths", 0, encodeColumns("x", 0, []int64{1, 2, 3}, []float64{1, 2}), "3 timestamps but 2 values"},
		{"decreasing nanos", 0, encodeColumns("x", 0, []int64{1, 5, 4}, []float64{1, 2, 3}), "precedes"},
		{"negative retention", -1, encodeColumns("x", -1, nil, nil), "negative retention"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder()
			if err := r.Series("ok").Append(t0, 7); err != nil {
				t.Fatal(err)
			}
			var before, after strings.Builder
			if err := r.WriteExact(&before); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(RecorderState{Series: []SeriesState{ok, {Name: "x", Retention: tc.retention, data: tc.bad}}}); err != nil {
				t.Fatal(err)
			}
			var st RecorderState
			err := gob.NewDecoder(&buf).Decode(&st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
			if r.series["x"] != nil {
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

// A restore into a series whose ring already has the state's retention,
// as a rebuilt fleet's sampled series have, refills that ring: the same
// backing array, the same WriteExact bytes as the exporter, and no
// allocation. A ring of another capacity is replaced, and a malformed
// state, which GobDecode refuses, leaves the refillable ring untouched.
func TestRecorderRestoreStateRefillsRing(t *testing.T) {
	src := NewRecorder()
	src.Series("r").SetRetention(8)
	for i := 0; i < 13; i++ { // wraps the ring
		if err := src.Series("r").Append(t0.Add(time.Duration(i)*time.Second), float64(i)/3); err != nil {
			t.Fatal(err)
		}
	}
	st := src.ExportState()
	var want strings.Builder
	if err := src.WriteExact(&want); err != nil {
		t.Fatal(err)
	}

	dst := NewRecorder()
	dst.Series("r").SetRetention(8)
	ring := &dst.Series("r").ring[:1][0]
	var bad SeriesState
	if err := bad.GobDecode(encodeColumns("x", 0, []int64{2, 1}, []float64{0, 0})); err == nil {
		t.Fatal("GobDecode accepted decreasing timestamps")
	}
	if s := dst.Series("r"); s.Len() != 0 || &s.ring[:1][0] != ring {
		t.Fatalf("rejected state changed the ring: len %d", s.Len())
	}
	if allocs := testing.AllocsPerRun(10, func() { dst.RestoreState(st) }); allocs != 0 {
		t.Errorf("refilling restore allocates %.0f times, want 0", allocs)
	}
	if &dst.Series("r").ring[:1][0] != ring {
		t.Error("restore replaced a ring that already had the state's retention")
	}
	var got strings.Builder
	if err := dst.WriteExact(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("refilled ring WriteExact:\n%s\nwant\n%s", got.String(), want.String())
	}

	other := NewRecorder()
	other.Series("r").SetRetention(16)
	other.RestoreState(st)
	if s := other.Series("r"); cap(s.ring) != 8 || s.retain != 8 {
		t.Errorf("restore into a 16-slot ring: cap %d, retention %d; want 8 and 8", cap(s.ring), s.retain)
	}
}

// ExportState allocates per series, never per sample: the same count at 10
// and at 5000 samples per series, at most the series slice plus one
// payload per series.
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
	if small != large || large > 1+series {
		t.Fatalf("ExportState allocs = %v at 10 points, %v at 5000; want equal and <= %d", small, large, 1+series)
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
	fresh.RestoreState(st)
	rs := fresh.Series("ring")
	if rs.retain != 5 {
		t.Fatalf("retention = %d, want 5", rs.retain)
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

// A state whose Name or Retention was edited after capture restores as
// edited, but GobEncode refuses to send it: its payload still carries
// the captured name and retention, and the wire would disagree with
// memory. An unedited state and an empty literal encode.
func TestSeriesStateGobEncodeRefusesEditedFields(t *testing.T) {
	r := NewRecorder()
	s := r.Series("ring")
	s.SetRetention(4)
	for i := 0; i < 6; i++ {
		if err := s.Append(t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	captured := r.ExportState().Series[0]
	if _, err := captured.GobEncode(); err != nil {
		t.Fatalf("unedited state: %v", err)
	}
	if _, err := (SeriesState{Name: "empty", Retention: 3}).GobEncode(); err != nil {
		t.Fatalf("literal state: %v", err)
	}
	for _, edit := range []struct {
		what string
		ss   SeriesState
	}{
		{"retention", SeriesState{Name: "ring", Retention: 3, data: captured.data}},
		{"name", SeriesState{Name: "rang", Retention: 4, data: captured.data}},
	} {
		fresh := NewRecorder()
		fresh.RestoreState(RecorderState{Series: []SeriesState{edit.ss}})
		if got := fresh.Series(edit.ss.Name); got.retain != edit.ss.Retention || got.Len() != min(4, edit.ss.Retention) {
			t.Errorf("%s edited: restored retention %d with %d samples, want the edit", edit.what, got.retain, got.Len())
		}
		if _, err := edit.ss.GobEncode(); err == nil || !strings.Contains(err.Error(), `captured as "ring" with retention 4`) {
			t.Errorf("%s edited: GobEncode err = %v, want a refusal naming the captured head", edit.what, err)
		}
	}
}

// encodeColumns writes GobEncode's layout from columns, one binary.Append
// call per field: the reference the exporter must agree with, and the way
// a test builds a payload the exporter never would.
func encodeColumns(name string, retention int64, nanos []int64, values []float64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendVarint(b, retention)
	b = binary.AppendUvarint(b, uint64(len(nanos)))
	var step int64
	for i, t := range nanos {
		if i == 0 {
			b = binary.AppendVarint(b, t)
			continue
		}
		d := t - nanos[i-1]
		b = binary.AppendVarint(b, d-step)
		step = d
	}
	b = binary.AppendUvarint(b, uint64(len(values)))
	for _, v := range values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// stateOf decodes encodeColumns' payload, which must be valid.
func stateOf(tb testing.TB, name string, retention int, nanos []int64, values []float64) SeriesState {
	tb.Helper()
	var ss SeriesState
	if err := ss.GobDecode(encodeColumns(name, int64(retention), nanos, values)); err != nil {
		tb.Fatal(err)
	}
	return ss
}

// pointsOf reads every sample of ss's payload with the reader
// RestoreState fills rings and chunks through.
func pointsOf(ss SeriesState) []point {
	d := readSamples(ss.data)
	pts := make([]point, d.n)
	d.fill(pts)
	return pts
}

// codecCase is one series the codec must carry bit-exactly.
type codecCase struct {
	name string
	ss   SeriesState
}

// codecCases are the series shapes the codec's round-trip table and the
// fuzzer's seed corpus share.
func codecCases(tb testing.TB) []codecCase {
	tb.Helper()
	at := func(offsets ...time.Duration) []int64 {
		nanos := make([]int64, len(offsets))
		for i, d := range offsets {
			nanos[i] = benchT0.Add(d).UnixNano()
		}
		return nanos
	}
	r := NewRecorder()
	ring := r.Series("ring")
	ring.SetRetention(5)
	for i := 0; i < 13; i++ {
		if err := ring.Append(benchT0.Add(time.Duration(i)*15*time.Second), float64(i)/3); err != nil {
			tb.Fatal(err)
		}
	}
	if ring.head == 0 {
		tb.Fatal("ring has not wrapped; the case needs head != 0")
	}
	return []codecCase{
		{"empty", SeriesState{Name: "empty", Retention: 4}},
		{"one sample", stateOf(tb, "one", 0, at(0), []float64{21.5})},
		{"wrapped ring", r.ExportState().Series[0]},
		{"irregular strides", stateOf(tb, "irregular", 0,
			at(0, time.Second, 3*time.Second, 3500*time.Millisecond, 10*time.Second, 10*time.Second+1, time.Hour),
			[]float64{1, 2, 3, 4, 5, 6, 7})},
		{"equal timestamps", stateOf(tb, "equal", 0,
			at(0, 0, 0, time.Second, time.Second),
			[]float64{1, 1, 2, 3, 5})},
		{"extreme timestamps", stateOf(tb, "extreme", 0,
			[]int64{math.MinInt64, math.MinInt64 + 1, -1, 0, math.MaxInt64 - 1, math.MaxInt64},
			[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6})},
		{"special floats", stateOf(tb, "special", 0,
			at(0, 15*time.Second, 30*time.Second, 45*time.Second, 60*time.Second, 75*time.Second),
			[]float64{math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1),
				math.Copysign(0, -1), math.Float64frombits(0xfff00000000abcde), 0})},
	}
}

// samePoints reports whether two sample slices are identical, values
// compared by their IEEE bits.
func samePoints(a, b []point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].nanos != b[i].nanos || math.Float64bits(a[i].value) != math.Float64bits(b[i].value) {
			return false
		}
	}
	return true
}

// sameSeries reports whether two series states are identical, values
// compared by their IEEE bits.
func sameSeries(a, b SeriesState) bool {
	return a.Name == b.Name && a.Retention == b.Retention && samePoints(pointsOf(a), pointsOf(b))
}

// The series codec carries every case through gob bit-exactly, alone and
// all together in one recorder, and a recorder restored from the decoded
// state writes the same WriteExact bytes as one restored from the
// original. The restored recorder exports the payload it was restored
// from, byte for byte, which is also what encodeColumns writes.
func TestRecorderStateGobCodecRoundTrip(t *testing.T) {
	cases := codecCases(t)
	var all RecorderState
	for _, c := range cases {
		all.Series = append(all.Series, c.ss)
	}
	type row struct {
		name string
		st   RecorderState
	}
	rows := []row{{"all series", all}}
	for _, c := range cases {
		rows = append(rows, row{c.name, RecorderState{Series: []SeriesState{c.ss}}})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(row.st); err != nil {
				t.Fatal(err)
			}
			var back RecorderState
			if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
				t.Fatal(err)
			}
			if len(back.Series) != len(row.st.Series) {
				t.Fatalf("decoded %d series, want %d", len(back.Series), len(row.st.Series))
			}
			for i := range row.st.Series {
				if !sameSeries(row.st.Series[i], back.Series[i]) {
					t.Fatalf("series %d: decoded %+v, want %+v", i, back.Series[i], row.st.Series[i])
				}
			}
			orig, restored := NewRecorder(), NewRecorder()
			orig.RestoreState(row.st)
			restored.RestoreState(back)
			var want, got strings.Builder
			if err := orig.WriteExact(&want); err != nil {
				t.Fatal(err)
			}
			if err := restored.WriteExact(&got); err != nil {
				t.Fatal(err)
			}
			if want.String() != got.String() {
				t.Fatalf("WriteExact differs:\n%s\nvs\n%s", want.String(), got.String())
			}
			for i, ss := range restored.ExportState().Series {
				payload, err := row.st.Series[i].GobEncode()
				if err != nil {
					t.Fatal(err)
				}
				pts := pointsOf(ss)
				nanos, values := make([]int64, len(pts)), make([]float64, len(pts))
				for j, p := range pts {
					nanos[j], values[j] = p.nanos, p.value
				}
				if ref := encodeColumns(ss.Name, int64(ss.Retention), nanos, values); !bytes.Equal(ss.data, payload) || !bytes.Equal(ss.data, ref) {
					t.Fatalf("series %d exports %x, restored from %x; encodeColumns writes %x", i, ss.data, payload, ref)
				}
			}
		})
	}
}

// A full 960-sample ring sampled every 15 s from the twin's start instant,
// the shape of every series in a benchmark twin, costs at most 9 bytes a
// sample plus 64 in a gob stream: about one byte per timestamp and eight
// per value. Gob alone spends nine on each such timestamp.
func TestSeriesStateGobSize(t *testing.T) {
	const n = 960
	r := NewRecorder()
	s := r.Series("zone0.t")
	s.SetRetention(n)
	for i := 0; i < n; i++ {
		if err := s.Append(benchT0.Add(time.Duration(i)*15*time.Second), 24+math.Sin(float64(i)/40)); err != nil {
			t.Fatal(err)
		}
	}
	st := r.ExportState()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	// The first message also carries gob's type definitions; size the second.
	if err := enc.Encode(st); err != nil {
		t.Fatal(err)
	}
	before := buf.Len()
	if err := enc.Encode(st); err != nil {
		t.Fatal(err)
	}
	if size, limit := buf.Len()-before, 9*n+64; size > limit {
		t.Fatalf("%d samples encode in %d bytes (%.2f per sample), want at most %d", n, size, float64(size)/n, limit)
	}
}

// Every strict prefix of an encoding, and the encoding with a byte
// appended, is an error, not a panic or a shorter series.
func TestSeriesStateGobDecodeRejectsTruncatedAndTrailing(t *testing.T) {
	for _, c := range codecCases(t) {
		data, err := c.ss.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(data); i++ {
			var ss SeriesState
			if err := ss.GobDecode(data[:i]); err == nil {
				t.Fatalf("%s: %d of %d bytes decoded to %+v", c.name, i, len(data), ss)
			}
		}
		var ss SeriesState
		if err := ss.GobDecode(append(data, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("%s: trailing byte: err = %v", c.name, err)
		}
	}
}

// decodeTimestampsByVarint decodes GobEncode's timestamp column with one
// binary.Varint call per timestamp, the decoder's general path, as the
// reference its one-byte fast path must agree with.
func decodeTimestampsByVarint(tb testing.TB, data []byte) []int64 {
	tb.Helper()
	next := func() int64 {
		v, k := binary.Varint(data)
		if k <= 0 {
			tb.Fatalf("reference decode: bad varint at %x", data)
		}
		data = data[k:]
		return v
	}
	nameLen, k := binary.Uvarint(data)
	data = data[k+int(nameLen):]
	next() // retention
	n, k := binary.Uvarint(data)
	data = data[k:]
	if n == 0 {
		return nil
	}
	nanos := make([]int64, n)
	nanos[0] = next()
	var step int64
	for i := 1; i < len(nanos); i++ {
		step += next()
		nanos[i] = nanos[i-1] + step
	}
	return nanos
}

// The decoder reads a one-byte change in the sampling interval inline and
// a longer one through binary.Varint. Each case holds its change, its
// negation and returns to the base interval between them. Zigzag maps
// changes from -64 to 63 to one byte, so 64 and -65 are the first
// two-byte cases, and each case's encoding is the expected length. The
// most negative change, MinInt64+1, fits a series whose timestamps never
// decrease only as a fall from an interval of MaxInt64 to 0, so its case
// is the three samples MinInt64, -1, -1: ten bytes each for the first
// timestamp and the two changes. The exporter writes the same bytes from
// a ring holding the samples.
func TestSeriesStateGobDecodeIntervalChanges(t *testing.T) {
	const base = int64(15 * time.Second)
	t0 := benchT0.UnixNano()
	check := func(t *testing.T, nanos []int64, tsBytes int) {
		data := encodeColumns("s", 8, nanos, make([]float64, len(nanos)))
		// Name, retention and count before the timestamps; the value count
		// and values after them.
		if got := len(data) - (1 + len("s") + 1 + 1) - 1 - 8*len(nanos); got != tsBytes {
			t.Fatalf("timestamps take %d bytes, want %d", got, tsBytes)
		}
		var back SeriesState
		if err := back.GobDecode(data); err != nil {
			t.Fatal(err)
		}
		got := make([]int64, 0, len(nanos))
		for _, p := range pointsOf(back) {
			got = append(got, p.nanos)
		}
		if !slices.Equal(got, nanos) {
			t.Fatalf("decoded %v, want %v", got, nanos)
		}
		if ref := decodeTimestampsByVarint(t, data); !slices.Equal(ref, got) {
			t.Fatalf("decoded %v, binary.Varint reads %v", got, ref)
		}
		r := NewRecorder()
		s := r.Series("s")
		s.SetRetention(8)
		for _, ns := range nanos {
			s.append(point{nanos: ns})
		}
		if exported := r.ExportState().Series[0].data; !bytes.Equal(exported, data) {
			t.Fatalf("the exporter writes %x, want %x", exported, data)
		}
	}
	for _, tc := range []struct {
		name   string
		change int64
		bytes  int // what change and -change take together
	}{
		{"0", 0, 2},
		{"+1", 1, 2},
		{"-1", -1, 2},
		{"+63", 63, 2},
		{"-63", -63, 2},
		{"+64", 64, 3},
		{"-64", -64, 3},
		{"-65", -65, 4},
		{"huge", 1 << 61, 18},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Intervals base, base, base+change, base+change, base, base:
			// after the first interval the changes are 0, change, 0,
			// -change, 0.
			intervals := []int64{base, base, base + tc.change, base + tc.change, base, base}
			nanos := []int64{t0}
			for _, d := range intervals {
				nanos = append(nanos, nanos[len(nanos)-1]+d)
			}
			// The first timestamp and interval, three changes of 0, and
			// the case's pair.
			check(t, nanos, len(binary.AppendVarint(nil, t0))+len(binary.AppendVarint(nil, base))+3+tc.bytes)
		})
	}
	t.Run("most negative", func(t *testing.T) {
		check(t, []int64{math.MinInt64, -1, -1}, 30)
	})
}

// A run of one-byte interval changes cut short is an error, and so is a
// series whose timestamps decrease. (A single sample, with no interval
// change, is codecCases' "one sample".)
func TestSeriesStateGobDecodeEdges(t *testing.T) {
	// Ten samples 1000 ns apart: the first timestamp, the first interval
	// (two bytes), then a run of eight one-byte changes of 0. Every cut
	// inside the run is an error. Cut before its last byte, the count
	// check passes (ten bytes for ten timestamps) and the run itself
	// runs out.
	nanos := make([]int64, 10)
	for i := range nanos {
		nanos[i] = int64(i) * 1000
	}
	data := encodeColumns("p", 0, nanos, make([]float64, 10))
	const runStart = 1 + len("p") + 1 + 1 + 1 + 2 // name, retention, count, 0, 1000
	if run := data[runStart : runStart+8]; !slices.Equal(run, make([]byte, 8)) {
		t.Fatalf("encoding %x has no run of eight zero bytes at %d", data, runStart)
	}
	for cut := runStart; cut < runStart+8; cut++ {
		var ss SeriesState
		err := ss.GobDecode(data[:cut])
		if err == nil {
			t.Fatalf("cut at byte %d inside the one-byte run decoded to %+v", cut, ss)
		}
		if cut == runStart+7 && !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut before the run's last byte: err = %v, want truncated", err)
		}
	}

	var back SeriesState
	err := back.GobDecode(encodeColumns("down", 0, []int64{100, 200, 150, 250}, make([]float64, 4)))
	if err == nil || !strings.Contains(err.Error(), "sample 2 at 150 ns precedes sample 1 at 200 ns") {
		t.Fatalf("GobDecode of decreasing timestamps: err = %v", err)
	}
}

// A 16-byte input that claims 2^40 timestamps or values is an error, and
// nothing is kept: the call allocates under 1 MiB in all, and a column
// that size could not be allocated at all.
func TestSeriesStateGobDecodeHugeCount(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, tc := range []struct {
		name string
		head []byte
	}{
		{"timestamps", append([]byte{0, 0}, huge...)}, // empty name, retention 0, 2^40 timestamps
		{"values", append([]byte{0, 0, 0}, huge...)},  // no timestamps, 2^40 values
	} {
		data := append(tc.head, make([]byte, 16-len(tc.head))...)
		var ss SeriesState
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ss.GobDecode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decoded %x", tc.name, data)
		}
		if ss.data != nil {
			t.Fatalf("%s: failed decode kept %d bytes", tc.name, len(ss.data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: decode allocated %d bytes", tc.name, grew)
		}
	}
}

// fuzzMaxRetention bounds the rings FuzzSeriesStateGobDecode restores:
// RestoreState sizes a ring from the state's retention, and a fleet
// refuses a retention its config did not give the series before it
// restores anything.
const fuzzMaxRetention = 4096

// FuzzSeriesStateGobDecode feeds the series decoder arbitrary bytes. It
// must never panic, and it keeps exactly the bytes it accepts. An accepted
// series with a ring of at most fuzzMaxRetention samples is restored into
// a recorder and exported again: the export holds the same samples, bit
// for bit, or the newest Retention of them for a ring, and decodes again.
func FuzzSeriesStateGobDecode(f *testing.F) {
	for _, c := range codecCases(f) {
		data, err := c.ss.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ss SeriesState
		if err := ss.GobDecode(data); err != nil {
			return
		}
		if !bytes.Equal(ss.data, data) {
			t.Fatalf("GobDecode of %x kept %x", data, ss.data)
		}
		if ss.Retention > fuzzMaxRetention {
			return
		}
		r := NewRecorder()
		r.RestoreState(RecorderState{Series: []SeriesState{ss}})
		out := r.ExportState().Series[0]
		want := pointsOf(ss)
		if ss.Retention > 0 && len(want) > ss.Retention {
			want = want[len(want)-ss.Retention:]
		}
		if out.Name != ss.Name || out.Retention != ss.Retention || !samePoints(pointsOf(out), want) {
			t.Fatalf("restore and export turned %x into %x", data, out.data)
		}
		var back SeriesState
		if err := back.GobDecode(out.data); err != nil {
			t.Fatalf("re-decode of %x: %v", out.data, err)
		}
	})
}
