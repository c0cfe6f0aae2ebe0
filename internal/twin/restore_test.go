package twin

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// postRestore serves body to POST /twins/restore and returns the answer
// and the bytes the process allocated meanwhile.
func postRestore(h http.Handler, body []byte) (*httptest.ResponseRecorder, uint64) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/twins/restore", bytes.NewReader(body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	return rec, after.TotalAlloc - before.TotalAlloc
}

// TestRestoreRouteAllocations bounds what POST /twins/restore allocates
// for fullRingTwin's 64-building snapshot: the rebuilt fleet's computed
// size (Config.BytesPerBuilding for every building) plus two and a half
// snapshots. Gob reads each message into a buffer of its own, one
// snapshot in all, and GobDecode keeps one copy of each trace payload,
// almost one more; the rest of each building's state, decoded into
// structs, and the allocator's rounding of the copies take well under
// half a snapshot. The route allocated 50.2 MiB against a 52.8 MiB bound;
// decoding each series into timestamp and value columns instead, 16
// bytes a sample where its payload takes about 9, allocated 59.0 MiB.
func TestRestoreRouteAllocations(t *testing.T) {
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
	fc, err := fullRingConfig.FleetConfig()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	defer srv.Close()
	rec, alloc := postRestore(srv.Handler(), buf.Bytes())
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST restore: status %d: %s", rec.Code, rec.Body)
	}
	limit := uint64(fc.BytesPerBuilding())*uint64(fc.Buildings) + uint64(buf.Len())*5/2
	t.Logf("restoring a %.2f MiB snapshot allocated %.2f MiB; bound %.2f MiB", float64(buf.Len())/(1<<20), float64(alloc)/(1<<20), float64(limit)/(1<<20))
	if alloc > limit {
		t.Fatalf("restore allocated %d bytes, want at most %d: %d buildings of %d B and 2.5 snapshots of %d",
			alloc, limit, fc.Buildings, fc.BytesPerBuilding(), buf.Len())
	}
}

// TestRestoreRouteUntrustedBuildingCount pins that a snapshot header's
// building count allocates nothing: a header that announces 1<<20
// buildings, followed by one, is a 400 naming the missing second
// building, builds at most the first, and registers no twin. The
// building keeps 16-sample rings, so the request allocates under 1 MiB,
// where 1<<20 buildings' slots alone would take 32 MiB.
func TestRestoreRouteUntrustedBuildingCount(t *testing.T) {
	src, err := NewTwin(context.Background(), Config{Buildings: 1, Shards: 1, Seed: 7, SampleRetention: 16})
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
	head := *snap
	head.State.Buildings = nil
	head.Config.Buildings = 1 << 20
	body := snapshotStream(t, head, snap.State.Buildings)

	srv := NewServer()
	defer srv.Close()
	rec, alloc := postRestore(srv.Handler(), body)
	const limit = 1 << 20
	t.Logf("a %d-byte body announcing %d buildings allocated %d bytes", len(body), head.Config.Buildings, alloc)
	want := fmt.Sprintf("building 1 of %d", head.Config.Buildings)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("POST restore: status %d: %s; want 400 mentioning %q", rec.Code, rec.Body, want)
	}
	if alloc >= limit {
		t.Fatalf("restore allocated %d bytes, want under %d", alloc, limit)
	}
	if ids := srv.reg.ids(); len(ids) != 0 {
		t.Fatalf("rejected restore registered twins %v", ids)
	}
}

// TestRestoreRouteStreamCutMidBuilding pins that a snapshot cut inside a
// building's message is a 400 naming that building, registers no twin,
// and leaves no goroutine behind: the restoring goroutine, building the
// buildings before it, stops with the decoder.
func TestRestoreRouteStreamCutMidBuilding(t *testing.T) {
	src, err := NewTwin(context.Background(), testConfig())
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
	head := *snap
	head.State.Buildings = nil
	n := len(snap.State.Buildings)
	srv := NewServer()
	defer srv.Close()
	h := srv.Handler()
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		start := len(snapshotStream(t, head, snap.State.Buildings[:i]))
		end := len(snapshotStream(t, head, snap.State.Buildings[:i+1]))
		body := snapshotStream(t, head, snap.State.Buildings)[:(start+end)/2]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/twins/restore", bytes.NewReader(body)))
		want := fmt.Sprintf("building %d of %d", i, n)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("cut inside building %d: status %d: %s; want 400 mentioning %q", i, rec.Code, rec.Body, want)
		}
	}
	if ids := srv.reg.ids(); len(ids) != 0 {
		t.Fatalf("rejected restores registered twins %v", ids)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after the rejected restores, %d before", got, before)
	}
}

// cancelAtEOF reads r and ends its request's context once the last byte
// is read, as a client does that disconnects right after its body.
type cancelAtEOF struct {
	r      *bytes.Reader
	cancel context.CancelFunc
}

func (c *cancelAtEOF) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.r.Len() == 0 {
		c.cancel()
	}
	return n, err
}

// TestRestoreRouteCancelledAfterBodyRegistersNoTwin pins that a request
// whose context ends once its whole body is read, as when the client
// disconnects or times out right after sending it, is a 400 with the
// context's error and registers no twin: the restore never returns a
// fleet short of the buildings its header announced. Whether the last
// building is handed over before the cancellation is seen is a race, so
// the request is sent many times.
func TestRestoreRouteCancelledAfterBodyRegistersNoTwin(t *testing.T) {
	src, err := NewTwin(context.Background(), testConfig())
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
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	srv := NewServer()
	defer srv.Close()
	h := srv.Handler()
	before := runtime.NumGoroutine()
	for k := 0; k < 32; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		body := &cancelAtEOF{r: bytes.NewReader(buf.Bytes()), cancel: cancel}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodPost, "/twins/restore", body))
		cancel()
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
			t.Fatalf("try %d: status %d: %s; want 400 with %q", k, rec.Code, rec.Body, context.Canceled)
		}
	}
	if ids := srv.reg.ids(); len(ids) != 0 {
		t.Fatalf("cancelled restores registered twins %v", ids)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after the cancelled restores, %d before", got, before)
	}
}
