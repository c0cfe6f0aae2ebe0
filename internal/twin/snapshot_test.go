package twin

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
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

// FuzzReadSnapshot feeds arbitrary bytes to ReadSnapshot and, when they
// decode, to RestoreTwin. Each returns an error or a result, never a
// panic; a restored twin is closed. The corpus in testdata/fuzz holds a
// 2-building snapshot and truncations of it. bubblezerod has no admission
// budget yet, so a header may ask for any fleet its config validates, as
// large as memory allows; the target restores fleets of at most 8
// buildings and rings of at most 4,096 samples, about 11 MB.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := snap.Config.FleetConfig(); err != nil {
			t.Fatalf("ReadSnapshot accepted a config FleetConfig rejects: %v", err)
		}
		if snap.Config.Buildings > 8 || snap.Config.SampleRetention > 4096 {
			return
		}
		tw, err := RestoreTwin(context.Background(), snap)
		if err != nil {
			return
		}
		tw.Close()
	})
}
