package twin

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"hash"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fleet"
)

// hashingResponse is a ResponseWriter that hashes the body instead of
// keeping it, so a test can measure what a handler allocates for a large
// answer without counting a buffer for the answer itself.
type hashingResponse struct {
	header http.Header
	status int
	n      int
	sum    hash.Hash
}

func (h *hashingResponse) Header() http.Header { return h.header }

func (h *hashingResponse) WriteHeader(status int) {
	if h.status == 0 {
		h.status = status
	}
}

func (h *hashingResponse) Write(b []byte) (int, error) {
	h.WriteHeader(http.StatusOK)
	h.n += len(b)
	return h.sum.Write(b)
}

// csvMaxWindowSHA256 is the digest of the max-window CSV answer below as
// the row-by-row writer rendered it, before WriteCSV worked in blocks. It
// moves only with the simulation itself, as the golden epoch does.
const csvMaxWindowSHA256 = "120d6caef8ce1d899652ce2bfd285413261e0b785289a832529530b038b622d5"

// TestQueryCSVMaxWindowBounded pins the CSV export's memory at the
// 65,536-bucket limit, with every series of a building (no series=): the
// answer is about 11.5 MB, and the handler may allocate under 32 MiB
// building it. The row-by-row writer allocated 589 MiB for the same
// request. The answer's bytes are the row-by-row writer's.
func TestQueryCSVMaxWindowBounded(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	h := srv.Handler()
	tw, err := NewTwin(context.Background(), Config{Buildings: 2, Shards: 1, Seed: 7, EpochTicks: 256})
	if err != nil {
		t.Fatalf("NewTwin: %v", err)
	}
	id := srv.reg.add(tw)
	if err := tw.RunTicks(600); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	waitIdle(t, tw, 600)

	w := &hashingResponse{header: http.Header{}, sum: sha256.New()}
	req := httptest.NewRequest(http.MethodGet, "/twins/"+id+"/query?format=csv&building=1&from_s=0&to_s=65535&step_s=1", nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	began := time.Now()
	h.ServeHTTP(w, req)
	took := time.Since(began)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte answer in %v, %.1f MiB allocated", w.n, took, float64(alloc)/(1<<20))
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if got := hex.EncodeToString(w.sum.Sum(nil)); got != csvMaxWindowSHA256 {
		t.Errorf("answer SHA-256 %s, want the row-by-row writer's %s", got, csvMaxWindowSHA256)
	}
	const limit = 32 << 20
	if alloc >= limit {
		t.Errorf("max-window CSV allocated %.1f MiB, want under %d MiB", float64(alloc)/(1<<20), limit>>20)
	}
}

// TestCreateAndRestoreForceNoCollection pins that neither building a twin
// nor restoring one forces a garbage collection: a forced collection
// costs in proportion to every other twin the process holds.
func TestCreateAndRestoreForceNoCollection(t *testing.T) {
	cfg := testConfig()
	cfg.SampleRetention = 960
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	src, err := NewTwin(context.Background(), cfg)
	if err != nil {
		t.Fatalf("NewTwin: %v", err)
	}
	defer src.Close()
	if err := src.RunTicks(300); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	waitIdle(t, src, 300)
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	dst, err := RestoreTwin(context.Background(), snap)
	if err != nil {
		t.Fatalf("RestoreTwin: %v", err)
	}
	dst.Close()
	runtime.ReadMemStats(&after)
	if n := after.NumForcedGC - before.NumForcedGC; n != 0 {
		t.Fatalf("create, run, snapshot and restore forced %d garbage collections, want 0", n)
	}
}

// fullRingConfig is the twin-checkpoint benchmark's twin: 64 buildings
// on 2 shards, every series a 960-sample ring.
var fullRingConfig = Config{Buildings: 64, Shards: 2, Seed: 905, SampleRetention: 960}

// fullRingTicks is the benchmark's 3,600 warm-up ticks plus 22 rounds of
// 512: at one sample per 15 ticks every ring then holds 960 samples and
// has wrapped, as in most of a timed checkpoint run.
const fullRingTicks = 3600 + 22*512

// fullRingTwin builds fullRingConfig's twin and runs it fullRingTicks
// before its runner starts.
func fullRingTwin(tb testing.TB) *Twin {
	tb.Helper()
	fc, err := fullRingConfig.FleetConfig()
	if err != nil {
		tb.Fatal(err)
	}
	fl, err := fleet.New(context.Background(), fc)
	if err != nil {
		tb.Fatal(err)
	}
	if err := fl.RunTicks(context.Background(), fullRingTicks); err != nil {
		tb.Fatal(err)
	}
	return startTwin(fullRingConfig, fc.Base.Start, fl)
}

// fullRingSnapshotSHA256 is the digest of fullRingTwin's snapshot stream.
// Snapshot bytes move only with the simulation or the wire format
// (SnapshotVersion).
const fullRingSnapshotSHA256 = "bf350d08b54264867e15f6671b875579a9cfb7aa9d896390924ba614379c4445"

// TestFullRingSnapshotBytes pins a full-ring 64-building snapshot's bytes,
// and that it reads back and restores to the same stream.
func TestFullRingSnapshotBytes(t *testing.T) {
	tw := fullRingTwin(t)
	defer tw.Close()
	snap, err := tw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != fullRingSnapshotSHA256 {
		t.Fatalf("%d-byte snapshot has SHA-256 %s, want %s", buf.Len(), got, fullRingSnapshotSHA256)
	}
	if err := tw.viewBuilding(63, func(sys *core.System) error {
		rec := sys.Recorder()
		for _, name := range rec.Names() {
			if n := rec.Series(name).Len(); n != fullRingConfig.SampleRetention {
				t.Fatalf("series %q holds %d samples, want a full ring", name, n)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTwin(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteSnapshot(&buf2, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("a restored twin's snapshot differs from the one it was restored from")
	}
}

// BenchmarkCheckpointStages times the stages of a checkpoint round trip
// of fullRingTwin, in ms each: capture (Twin.Snapshot), encode
// (WriteSnapshot), and decode and restore together, through the path POST
// /twins/restore takes (readTwin), where they overlap.
func BenchmarkCheckpointStages(b *testing.B) {
	tw := fullRingTwin(b)
	defer tw.Close()
	var capture, encode, restore time.Duration
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		snap, err := tw.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		buf.Reset()
		if err := WriteSnapshot(&buf, snap); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		restored, err := readTwin(context.Background(), bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		restored.Close()
		capture += t1.Sub(t0)
		encode += t2.Sub(t1)
		restore += t3.Sub(t2)
	}
	b.StopTimer()
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 / float64(b.N) }
	b.ReportMetric(ms(capture), "capture-ms")
	b.ReportMetric(ms(encode), "encode-ms")
	b.ReportMetric(ms(restore), "decode+restore-ms")
	b.ReportMetric(float64(buf.Len())/(1<<20), "MiB")
}

// FuzzReadSnapshot feeds arbitrary bytes to ReadSnapshot and, when they
// decode, to RestoreTwin, and every input to the streamed restore POST
// /twins/restore takes (readTwin). Each returns an error or a result,
// never a panic; a restored twin is closed. The corpus in testdata/fuzz
// holds a 2-building snapshot and truncations of it. bubblezerod has no
// admission budget yet, so a header may ask for any fleet its config
// validates, as large as memory allows; the target restores fleets of at
// most 8 buildings and rings of at most 4,096 samples, about 11 MB. The
// streamed restore reads those limits from the header first, as it
// builds each building as soon as its message has decoded.
func FuzzReadSnapshot(f *testing.F) {
	const maxBuildings, maxRetention = 8, 4096
	f.Fuzz(func(t *testing.T, data []byte) {
		var head Snapshot
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&head); err != nil ||
			head.Config.Buildings <= maxBuildings && head.Config.SampleRetention <= maxRetention {
			if tw, err := readTwin(context.Background(), bytes.NewReader(data)); err == nil {
				tw.Close()
			}
		}
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := snap.Config.FleetConfig(); err != nil {
			t.Fatalf("ReadSnapshot accepted a config FleetConfig rejects: %v", err)
		}
		if snap.Config.Buildings > maxBuildings || snap.Config.SampleRetention > maxRetention {
			return
		}
		tw, err := RestoreTwin(context.Background(), snap)
		if err != nil {
			return
		}
		tw.Close()
	})
}
