package twin_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bubblezero/internal/fleet"
	"bubblezero/internal/twin"
)

// HTTP service-layer benchmark: downsampled telemetry reads against a
// live 1000-building twin via the bubblezerod handler stack — route
// match, parameter parsing, the trace.Query bucket fold, and JSON
// encoding, everything a dashboard poll pays except the TCP socket.
// The headline metric is queries/s; recorded in BENCH_http.json via
// `make bench-http-json`, gated by scripts/benchguard.
//
// Requests rotate across buildings and series so the fold touches many
// recorders rather than one hot series. The fleet is advanced once,
// before the timer: the gate measures read throughput on an idle twin,
// where no query waits for a building's epoch.
func BenchmarkHTTPQuery(b *testing.B) {
	const (
		buildings = 1000
		runTicks  = 600
	)
	srv := twin.NewServer()
	defer srv.Close()
	h := srv.Handler()

	do := func(method, target, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := do(http.MethodPost, "/twins",
		fmt.Sprintf(`{"buildings": %d, "seed": 7}`, buildings))
	if rec.Code != http.StatusCreated {
		b.Fatalf("create twin: status %d: %s", rec.Code, rec.Body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		b.Fatal(err)
	}
	id := created.ID

	rec = do(http.MethodPost, "/twins/"+id+"/run",
		fmt.Sprintf(`{"ticks": %d}`, runTicks))
	if rec.Code != http.StatusAccepted {
		b.Fatalf("run: status %d: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st struct {
			Ticks   uint64 `json:"ticks"`
			Pending uint64 `json:"pending"`
			Err     string `json:"error"`
		}
		rec = do(http.MethodGet, "/twins/"+id, "")
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
		if st.Err != "" {
			b.Fatalf("twin runner failed: %s", st.Err)
		}
		if st.Pending == 0 && st.Ticks >= runTicks {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("twin stuck at tick %d with %d pending", st.Ticks, st.Pending)
		}
		time.Sleep(2 * time.Millisecond)
	}

	rec = do(http.MethodGet, "/twins/"+id+"/series?building=0", "")
	var series struct {
		Series []string `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &series); err != nil {
		b.Fatal(err)
	}
	if len(series.Series) == 0 {
		b.Fatal("no recorded series on building 0")
	}

	// Precompute a rotation of query targets: a stride through the fleet
	// crossed with the series list, every read a 60-bucket mean fold.
	targets := make([]string, 0, 64)
	for i := 0; len(targets) < cap(targets); i++ {
		bld := (i * 137) % buildings
		name := series.Series[i%len(series.Series)]
		targets = append(targets, fmt.Sprintf(
			"/twins/%s/query?building=%d&series=%s&from_s=0&to_s=%d&step_s=10&agg=mean",
			id, bld, name, runTicks))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := do(http.MethodGet, targets[i%len(targets)], "")
		if rec.Code != http.StatusOK {
			b.Fatalf("query: status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkCreateBesideLiveFleet times creating a 64-building twin with
// retention 960, the bench twins' shape, while the process holds a live
// 4,096-building fleet (about 160 MiB of heap). A collection forced at
// construction would scan that fleet on every create; a create should
// cost what the new twin costs.
func BenchmarkCreateBesideLiveFleet(b *testing.B) {
	ctx := context.Background()
	live, err := fleet.New(ctx, fleet.DefaultConfig(4096))
	if err != nil {
		b.Fatal(err)
	}
	cfg := twin.Config{Buildings: 64, SampleRetention: 960}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw, err := twin.NewTwin(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tw.Close()
	}
	b.StopTimer()
	runtime.KeepAlive(live)
}
