package twin

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// csvTwin is a two-building twin, warmed 600 ticks, whose building 1
// answers a max-window CSV export of about 11.5 MB.
func csvTwin(t *testing.T, srv *Server) (*Twin, string) {
	t.Helper()
	tw, err := NewTwin(context.Background(), Config{Buildings: 2, Shards: 1, Seed: 7, EpochTicks: 256})
	if err != nil {
		t.Fatalf("NewTwin: %v", err)
	}
	id := srv.reg.add(tw)
	if err := tw.RunTicks(600); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	waitIdle(t, tw, 600)
	return tw, id
}

const csvMaxWindow = "format=csv&building=1&from_s=0&to_s=65535&step_s=1"

// smallSendBuffers is a listener whose connections send through a 16 KiB
// socket buffer, so a stalled client fills them after a few flushes of
// an export of any size, whatever the host's default buffer sizes.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if err := c.(*net.TCPConn).SetWriteBuffer(16 << 10); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// TestQueryCSVStalledClientFreesRunner pins that a client which stops
// reading a CSV export cannot stop the runner. The export streams under
// building 1's read lock; the client reads about 200 bytes and stalls,
// so once the small socket buffers fill, the export's next write blocks
// with the lock held, and the runner waits to step building 1. Half a
// write deadline after the stall the runner must still be waiting, so
// the test fails if the export did not stall. The write deadline then
// fails the blocked write within csvFlushTimeout, the export frees the
// building, and the runner's ticks advance within csvFlushTimeout plus
// 10 s (most of it margin for the race detector).
func TestQueryCSVStalledClientFreesRunner(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener = smallSendBuffers{ts.Listener}
	ts.Start()
	defer ts.Close()
	tw, id := csvTwin(t, srv)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatalf("SetReadBuffer: %v", err)
	}
	if _, err := fmt.Fprintf(conn, "GET /twins/%s/query?%s HTTP/1.1\r\nHost: twin\r\n\r\n", id, csvMaxWindow); err != nil {
		t.Fatalf("send request: %v", err)
	}
	head := make([]byte, 200)
	if _, err := io.ReadFull(conn, head); err != nil {
		t.Fatalf("read the answer's start: %v", err)
	}
	if !bytes.HasPrefix(head, []byte("HTTP/1.1 200 ")) {
		t.Fatalf("answer starts %q, want a 200", head[:min(len(head), 40)])
	}

	stalled := time.Now()
	chunk := chunkTicks(2)
	if err := tw.RunTicks(chunk); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	time.Sleep(csvFlushTimeout / 2)
	if st := tw.Status(); st.Ticks != 600 || st.Pending != chunk {
		t.Fatalf("status %+v %v after the client stalled, want the chunk still waiting on building 1", st, csvFlushTimeout/2)
	}
	bound := csvFlushTimeout + 10*time.Second
	for tw.Status().Ticks < 600+chunk {
		if time.Since(stalled) > bound {
			t.Fatalf("the runner did not advance within %v of the client stalling: %+v", bound, tw.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("the runner advanced %v after the client stalled", time.Since(stalled).Round(time.Millisecond))
}

// failingResponse is a ResponseWriter whose writes fail once limit bytes
// have gone through. It records every status the handler sends and
// every write it attempts after the first failure.
type failingResponse struct {
	header        http.Header
	statuses      []int
	body          bytes.Buffer
	limit         int
	failed        bool
	writesAfterIt int
}

var errClientGone = errors.New("client gone")

func (f *failingResponse) Header() http.Header { return f.header }

func (f *failingResponse) WriteHeader(status int) { f.statuses = append(f.statuses, status) }

func (f *failingResponse) Write(p []byte) (int, error) {
	if len(f.statuses) == 0 {
		f.WriteHeader(http.StatusOK) // as net/http does on the first write
	}
	if f.failed {
		f.writesAfterIt++
		return 0, errClientGone
	}
	if room := f.limit - f.body.Len(); len(p) > room {
		f.body.Write(p[:room])
		f.failed = true
		return room, errClientGone
	}
	return f.body.Write(p)
}

// TestQueryCSVFailedWriteEndsResponse pins that a CSV export whose write
// fails sends nothing more: no second status and no JSON error after
// the rows, and no further write. The write fails on the first flush
// (limit 0), and on the second (limit 100,000, past the first 64 KiB).
// An error found before the first byte is still a 400.
func TestQueryCSVFailedWriteEndsResponse(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	h := srv.Handler()
	_, id := csvTwin(t, srv)

	for _, limit := range []int{0, 100_000} {
		w := &failingResponse{header: http.Header{}, limit: limit}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/twins/"+id+"/query?"+csvMaxWindow, nil))
		if len(w.statuses) != 1 || w.statuses[0] != http.StatusOK {
			t.Errorf("limit %d: statuses %v, want the one 200 the first write sent", limit, w.statuses)
		}
		if !w.failed || w.writesAfterIt != 0 {
			t.Errorf("limit %d: failed %v, %d writes after the failure, want one failure and none after", limit, w.failed, w.writesAfterIt)
		}
		if w.body.Len() != limit || strings.Contains(w.body.String(), `"error"`) {
			t.Errorf("limit %d: body of %d bytes, want the CSV's first %d and no error", limit, w.body.Len(), limit)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/twins/"+id+"/query?format=csv&building=9&from_s=0&to_s=60&step_s=1", nil))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("an out-of-range building: status %d %q, want a 400 with its error", rec.Code, rec.Body)
	}
}
