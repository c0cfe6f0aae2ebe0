package twin

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"bubblezero/internal/adaptive"
	"bubblezero/internal/core"
	"bubblezero/internal/fault"
	"bubblezero/internal/fleet"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
)

// testConfig pins shards explicitly so two twins built from it are
// structurally identical regardless of the host's core count.
func testConfig() Config {
	return Config{Buildings: 3, Shards: 2, Seed: 7, EpochTicks: 256}
}

// fingerprint is a building's bit-exact identity: Float64bits zone state
// plus the SHA-256 of the recorder's exact hex-float dump.
func fingerprint(t *testing.T, sys *core.System) string {
	t.Helper()
	var sb strings.Builder
	for z := 0; z < thermal.NumZones; z++ {
		st := sys.Room().Zone(thermal.ZoneID(z))
		fmt.Fprintf(&sb, "%x/%x/%x;", math.Float64bits(st.T), math.Float64bits(st.W), math.Float64bits(st.CO2PPM))
	}
	h := sha256.New()
	if err := sys.Recorder().WriteExact(h); err != nil {
		t.Fatalf("WriteExact: %v", err)
	}
	sb.WriteString(hex.EncodeToString(h.Sum(nil)))
	return sb.String()
}

func fingerprints(t *testing.T, tw *Twin) []string {
	t.Helper()
	var fps []string
	for i := 0; i < tw.Config().Buildings; i++ {
		if err := tw.viewBuilding(i, func(sys *core.System) error {
			fps = append(fps, fingerprint(t, sys))
			return nil
		}); err != nil {
			t.Fatalf("viewBuilding(%d): %v", i, err)
		}
	}
	return fps
}

// waitIdle polls until the twin's runner has drained to wantTicks.
func waitIdle(t *testing.T, tw *Twin, wantTicks uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := tw.Status()
		if st.Err != "" {
			t.Fatalf("twin runner failed: %s", st.Err)
		}
		if st.Pending == 0 && st.Ticks == wantTicks {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("twin did not reach tick %d: %+v", wantTicks, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// testEvents is the mutation batch injected at tick 300: a weather change
// and a live chiller trip whose injection fires before the tick-556
// snapshot and whose clear fires after it.
func testEvents() []fleet.Event {
	return []fleet.Event{
		{Kind: fleet.EventClimate, TC: 33, DewC: 27},
		{Kind: fleet.EventFault, Building: 1, Faults: []fault.Event{
			fault.ChillerTrip(200*time.Second, 120*time.Second, fault.LoopVent), // fires 500, clears 620
		}},
	}
}

// runReference produces the uninterrupted run the snapshot paths are
// measured against: 300 ticks, the event batch, then straight to 900.
func runReference(t *testing.T) []string {
	t.Helper()
	ref, err := NewTwin(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("NewTwin(ref): %v", err)
	}
	defer ref.Close()
	if err := ref.RunTicks(300); err != nil {
		t.Fatalf("ref run: %v", err)
	}
	waitIdle(t, ref, 300)
	for i, ev := range testEvents() {
		if err := ref.Apply(ev); err != nil {
			t.Fatalf("ref event %d: %v", i, err)
		}
	}
	if err := ref.RunTicks(600); err != nil {
		t.Fatalf("ref run to end: %v", err)
	}
	waitIdle(t, ref, 900)
	return fingerprints(t, ref)
}

// TestTwinSnapshotRoundTrip pins the service-layer checkpoint contract at
// the Go API level: snapshot at tick 556, gob-encode to bytes, decode in
// a "fresh process" (a new Twin built by RestoreTwin), run to 900, and
// compare bit-exact fingerprints against the uninterrupted reference.
func TestTwinSnapshotRoundTrip(t *testing.T) {
	want := runReference(t)

	chk, err := NewTwin(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("NewTwin(chk): %v", err)
	}
	defer chk.Close()
	if err := chk.RunTicks(300); err != nil {
		t.Fatalf("chk run: %v", err)
	}
	waitIdle(t, chk, 300)
	for i, ev := range testEvents() {
		if err := chk.Apply(ev); err != nil {
			t.Fatalf("chk event %d: %v", i, err)
		}
	}
	if err := chk.RunTicks(256); err != nil {
		t.Fatalf("chk run to snapshot: %v", err)
	}
	waitIdle(t, chk, 556)

	snap, err := chk.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	decoded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}

	res, err := RestoreTwin(context.Background(), decoded)
	if err != nil {
		t.Fatalf("RestoreTwin: %v", err)
	}
	defer res.Close()
	if got := res.Status().Ticks; got != 556 {
		t.Fatalf("restored twin at tick %d, want 556", got)
	}
	if err := res.RunTicks(344); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	waitIdle(t, res, 900)

	got := fingerprints(t, res)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("building %d: restored fingerprint diverged from uninterrupted run", i)
		}
	}
}

// httpJSON performs one JSON request against the test server and decodes
// the response into out (skipped when out is nil).
func httpJSON(t *testing.T, client *http.Client, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal %s %s: %v", method, url, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request %s %s: %v", method, url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
}

// waitIdleHTTP polls the status endpoint until the backlog drains.
func waitIdleHTTP(t *testing.T, client *http.Client, base, id string, wantTicks uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st statusResponse
		httpJSON(t, client, http.MethodGet, base+"/twins/"+id, nil, http.StatusOK, &st)
		if st.Err != "" {
			t.Fatalf("twin %s failed: %s", id, st.Err)
		}
		if st.Pending == 0 && st.Ticks == wantTicks {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("twin %s did not reach tick %d: %+v", id, wantTicks, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerSnapshotRestoreAcrossServers drives the whole redesigned API
// over HTTP: create → run → inject events → run → download snapshot, then
// restore the bytes into a second server (a fresh process stand-in), run
// the remainder there, and require bit-identity with the uninterrupted
// reference run.
func TestServerSnapshotRestoreAcrossServers(t *testing.T) {
	want := runReference(t)

	srvA := NewServer()
	defer srvA.Close()
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()
	client := tsA.Client()

	var created createResponse
	httpJSON(t, client, http.MethodPost, tsA.URL+"/twins", testConfig(), http.StatusCreated, &created)
	id := created.ID
	if created.Buildings != 3 {
		t.Fatalf("created %d buildings, want 3", created.Buildings)
	}

	httpJSON(t, client, http.MethodPost, tsA.URL+"/twins/"+id+"/run", map[string]uint64{"ticks": 300}, http.StatusAccepted, nil)
	waitIdleHTTP(t, client, tsA.URL, id, 300)

	httpJSON(t, client, http.MethodPost, tsA.URL+"/twins/"+id+"/events",
		eventRequest{Kind: "climate", TC: 33, DewC: 27}, http.StatusAccepted, nil)
	httpJSON(t, client, http.MethodPost, tsA.URL+"/twins/"+id+"/events",
		eventRequest{Kind: "fault", Building: 1, Faults: []faultRequest{
			{Kind: "chiller-trip", AtS: 200, ForS: 120, Loop: "vent"},
		}}, http.StatusAccepted, nil)

	httpJSON(t, client, http.MethodPost, tsA.URL+"/twins/"+id+"/run", map[string]uint64{"ticks": 256}, http.StatusAccepted, nil)
	waitIdleHTTP(t, client, tsA.URL, id, 556)

	resp, err := client.Get(tsA.URL + "/twins/" + id + "/snapshot")
	if err != nil {
		t.Fatalf("GET snapshot: %v", err)
	}
	snapBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: status %d, err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("snapshot Content-Type = %q", ct)
	}

	srvB := NewServer()
	defer srvB.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	respB, err := tsB.Client().Post(tsB.URL+"/twins/restore", "application/octet-stream", bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatalf("POST restore: %v", err)
	}
	var restored createResponse
	rawB, _ := io.ReadAll(respB.Body)
	respB.Body.Close()
	if respB.StatusCode != http.StatusCreated {
		t.Fatalf("POST restore: status %d: %s", respB.StatusCode, rawB)
	}
	if err := json.Unmarshal(rawB, &restored); err != nil {
		t.Fatalf("restore response %q: %v", rawB, err)
	}
	if restored.Ticks != 556 {
		t.Fatalf("restored twin at tick %d, want 556", restored.Ticks)
	}

	httpJSON(t, tsB.Client(), http.MethodPost, tsB.URL+"/twins/"+restored.ID+"/run", map[string]uint64{"ticks": 344}, http.StatusAccepted, nil)
	waitIdleHTTP(t, tsB.Client(), tsB.URL, restored.ID, 900)

	resTwin, ok := srvB.reg.get(restored.ID)
	if !ok {
		t.Fatalf("restored twin %q missing from registry", restored.ID)
	}
	got := fingerprints(t, resTwin)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("building %d: HTTP-restored fingerprint diverged from uninterrupted run", i)
		}
	}
}

// TestServerQueryEndpoints pins the read surface: series listing, JSON
// downsampled buckets with aggregates, CSV export, and the error mapping
// (404 unknown series / twin, 400 bad parameters).
func TestServerQueryEndpoints(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var created createResponse
	httpJSON(t, client, http.MethodPost, ts.URL+"/twins", Config{Buildings: 2, Shards: 1, EpochTicks: 256}, http.StatusCreated, &created)
	id := created.ID
	httpJSON(t, client, http.MethodPost, ts.URL+"/twins/"+id+"/run", map[string]uint64{"ticks": 600}, http.StatusAccepted, nil)
	waitIdleHTTP(t, client, ts.URL, id, 600)

	var series struct {
		Building int      `json:"building"`
		Series   []string `json:"series"`
	}
	httpJSON(t, client, http.MethodGet, ts.URL+"/twins/"+id+"/series?building=1", nil, http.StatusOK, &series)
	if len(series.Series) == 0 || series.Building != 1 {
		t.Fatalf("series listing = %+v, want non-empty for building 1", series)
	}
	name := series.Series[0]

	var qr queryResponse
	httpJSON(t, client, http.MethodGet,
		ts.URL+"/twins/"+id+"/query?building=1&series="+name+"&from_s=0&to_s=600&step_s=60&agg=mean",
		nil, http.StatusOK, &qr)
	if len(qr.Points) != 11 {
		t.Fatalf("query returned %d points, want 11", len(qr.Points))
	}
	if qr.Agg != "mean" || qr.Series != name {
		t.Fatalf("query response header = %+v", qr)
	}
	sawValue := false
	for _, p := range qr.Points {
		if p.Value != nil {
			sawValue = true
		}
	}
	if !sawValue {
		t.Fatalf("query returned no data in any bucket: %+v", qr.Points)
	}

	resp, err := client.Get(ts.URL + "/twins/" + id + "/query?building=0&format=csv&from_s=0&to_s=600&step_s=60")
	if err != nil {
		t.Fatalf("GET csv: %v", err)
	}
	csvBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET csv: status %d: %s", resp.StatusCode, csvBody)
	}
	if lines := strings.Count(string(csvBody), "\n"); lines != 12 {
		t.Fatalf("CSV has %d lines, want 12 (header + 11 buckets):\n%s", lines, csvBody)
	}

	for path, wantStatus := range map[string]int{
		"/twins/nope": http.StatusNotFound,
		"/twins/" + id + "/query?series=zzz&from_s=0&to_s=10&step_s=1":         http.StatusNotFound,
		"/twins/" + id + "/query?series=" + name:                               http.StatusBadRequest,
		"/twins/" + id + "/query?series=" + name + "&from_s=9&to_s=1&step_s=1": http.StatusBadRequest,
		"/twins/" + id + "/series?building=99":                                 http.StatusBadRequest,
	} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
	}
}

// TestServerEventValidation pins the mutation surface's error mapping.
func TestServerEventValidation(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var created createResponse
	httpJSON(t, client, http.MethodPost, ts.URL+"/twins", Config{Buildings: 1, Shards: 1}, http.StatusCreated, &created)
	id := created.ID

	bad := []eventRequest{
		{Kind: "weather"},                      // unknown kind
		{Kind: "door", Building: 5, DoorS: 30}, // building out of range
		{Kind: "door", Building: 0},            // non-positive duration
		{Kind: "fault", Building: 0},           // no fault events
		{Kind: "fault", Building: 0, Faults: []faultRequest{{Kind: "melted"}}},                                 // unknown fault kind
		{Kind: "door", Building: 0, DoorS: 1e300},                                                              // duration overflow
		{Kind: "fault", Building: 0, Faults: []faultRequest{{Kind: "chiller-trip", AtS: 1e300, Loop: "vent"}}}, // offset overflow
		{Kind: "climate", TC: 1e308, DewC: 20},                                                                 // NaN in every zone
	}
	for i, ev := range bad {
		httpJSON(t, client, http.MethodPost, ts.URL+"/twins/"+id+"/events", ev, http.StatusBadRequest, nil)
		_ = i
	}
	httpJSON(t, client, http.MethodPost, ts.URL+"/twins/"+id+"/events",
		eventRequest{Kind: "door", Building: 0, DoorS: 45}, http.StatusAccepted, nil)

	// The refused climate event left the twin's zones finite.
	httpJSON(t, client, http.MethodPost, ts.URL+"/twins/"+id+"/run", map[string]uint64{"ticks": 600}, http.StatusAccepted, nil)
	waitIdleHTTP(t, client, ts.URL, id, 600)
	tw, _ := srv.reg.get(id)
	err := tw.viewBuilding(0, func(sys *core.System) error {
		for z := 0; z < thermal.NumZones; z++ {
			st := sys.Room().Zone(thermal.ZoneID(z))
			if math.IsNaN(st.T) || math.IsInf(st.T, 0) || math.IsNaN(st.W) || math.IsInf(st.W, 0) {
				t.Errorf("zone %d: T %v, W %v after a refused climate event, want finite", z, st.T, st.W)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// serve sends one request straight through the server's handler.
func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// TestServerQueryWindowBounds pins the query window limits on both answer
// paths: a window that is not finite, does not fit a Duration, or holds
// more than maxQueryBuckets buckets is a 400 before any bucket is built,
// and a window of exactly the limit is answered in full.
func TestServerQueryWindowBounds(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	h := srv.Handler()
	rec := serve(h, http.MethodPost, "/twins", `{"buildings":2,"shards":1,"epoch_ticks":256}`)
	var created createResponse
	if err := json.NewDecoder(rec.Body).Decode(&created); err != nil || rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d, err %v", rec.Code, err)
	}
	tw, _ := srv.reg.get(created.ID)
	if err := tw.RunTicks(60); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, tw, 60)
	var name string
	if err := tw.viewBuilding(0, func(sys *core.System) error { name = sys.Recorder().Names()[0]; return nil }); err != nil {
		t.Fatal(err)
	}

	last := fmt.Sprint(maxQueryBuckets - 1) // to_s of a window holding exactly the limit at step_s=1
	for _, format := range []string{"json", "csv"} {
		for _, tc := range []struct {
			window string
			want   int
		}{
			{"from_s=NaN&to_s=10&step_s=1", http.StatusBadRequest},
			{"from_s=0&to_s=NaN&step_s=1", http.StatusBadRequest},
			{"from_s=0&to_s=10&step_s=NaN", http.StatusBadRequest},
			{"from_s=-Inf&to_s=10&step_s=1", http.StatusBadRequest},
			{"from_s=0&to_s=+Inf&step_s=1", http.StatusBadRequest},
			{"from_s=0&to_s=1e300&step_s=1e299", http.StatusBadRequest}, // overflows a Duration
			{"from_s=0&to_s=9.3e9&step_s=1e9", http.StatusBadRequest},   // just past ±292 years
			{"from_s=0&to_s=1000000&step_s=1", http.StatusBadRequest},   // 1,000,001 buckets
			{"from_s=0&to_s=" + fmt.Sprint(maxQueryBuckets) + "&step_s=1", http.StatusBadRequest},
			{"from_s=0&to_s=10&step_s=1e-10", http.StatusBadRequest}, // step rounds to zero
			{"from_s=0&to_s=" + last + "&step_s=1", http.StatusOK},
		} {
			target := "/twins/" + created.ID + "/query?series=" + name + "&format=" + format + "&" + tc.window
			rec := serve(h, http.MethodGet, target, "")
			if rec.Code != tc.want {
				t.Errorf("%s %s: status %d, want %d: %.200s", format, tc.window, rec.Code, tc.want, rec.Body.String())
				continue
			}
			if rec.Code != http.StatusOK {
				continue
			}
			if format == "csv" {
				if rows := strings.Count(rec.Body.String(), "\n"); rows != maxQueryBuckets+1 {
					t.Errorf("csv at the limit: %d lines, want %d (header + buckets)", rows, maxQueryBuckets+1)
				}
				continue
			}
			var qr queryResponse
			if err := json.NewDecoder(rec.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
			if len(qr.Points) != maxQueryBuckets {
				t.Errorf("json at the limit: %d points, want %d", len(qr.Points), maxQueryBuckets)
			}
		}
	}
}

// FuzzParseWindow feeds the query window parser arbitrary from_s, to_s
// and step_s strings. It must never panic, and a window it accepts holds
// between 1 and maxQueryBuckets buckets, counted as trace.Query counts
// them. The corpus in testdata/fuzz holds the non-finite, overflowing and
// vanishing offsets and the README's query.
func FuzzParseWindow(f *testing.F) {
	start := time.Date(2014, 3, 1, 9, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, fromS, toS, stepS string) {
		q := url.Values{"from_s": {fromS}, "to_s": {toS}, "step_s": {stepS}}
		r := &http.Request{URL: &url.URL{RawQuery: q.Encode()}}
		from, to, step, err := parseWindow(r, start)
		if err != nil {
			return
		}
		if step <= 0 || to.Before(from) {
			t.Fatalf("accepted step %v over [%v, %v]", step, from, to)
		}
		if last := to.Sub(from) / step; last >= maxQueryBuckets {
			t.Fatalf("accepted %d+1 buckets, limit %d", last, maxQueryBuckets)
		}
	})
}

// TestServerCreateRejectsBadConfig pins the 400 path of POST /twins: an
// unknown field (the retired "unbanked" knob must fail loudly, not be
// ignored), an invalid fleet config, or a truncated body is rejected and
// registers no twin.
func TestServerCreateRejectsBadConfig(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	for _, tc := range []struct{ name, body string }{
		{"unknown field", `{"buildings":1,"unbanked":true}`},
		{"no buildings", `{"buildings":0}`},
		{"more shards than buildings", `{"buildings":2,"shards":3}`},
		{"negative epoch", `{"buildings":1,"epoch_ticks":-1}`},
		{"truncated body", `{"buildings":1,`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Post(ts.URL+"/twins", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST /twins: %v", err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST /twins %s: status %d, want 400: %s", tc.body, resp.StatusCode, raw)
			}
		})
	}
	var list map[string][]string
	httpJSON(t, client, http.MethodGet, ts.URL+"/twins", nil, http.StatusOK, &list)
	if ids := list["twins"]; len(ids) != 0 {
		t.Fatalf("rejected creates registered twins %v", ids)
	}
}

// TestServerCreateRejectsUnallocatableRetention pins that a retention
// whose rings Go cannot allocate is a 400 naming it, for a twin built on
// the handler goroutine (one building) and on pool workers (two). Such a
// create used to panic in make, and on a pool worker that ended the
// process.
func TestServerCreateRejectsUnallocatableRetention(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	h := srv.Handler()
	const retention = "1152921504606846976" // 2^60 samples, 2^64 bytes a ring
	for _, buildings := range []int{1, 2} {
		body := fmt.Sprintf(`{"buildings":%d,"sample_retention":%s}`, buildings, retention)
		rec := serve(h, http.MethodPost, "/twins", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "SampleRetention "+retention) {
			t.Errorf("POST /twins %s: status %d: %s, want 400 naming the retention", body, rec.Code, rec.Body)
		}
		if rec := serve(h, http.MethodGet, "/twins", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"twins":[]`) {
			t.Fatalf("GET /twins after the rejected create: status %d: %s", rec.Code, rec.Body)
		}
	}
}

// TestServerRestoreRejectsBadTraceState pins that a well-formed snapshot
// carrying malformed trace columns is a 400, not a panic, and registers no
// twin.
func TestServerRestoreRejectsBadTraceState(t *testing.T) {
	src, err := NewTwin(context.Background(), Config{Buildings: 1, Shards: 1})
	if err != nil {
		t.Fatalf("NewTwin: %v", err)
	}
	defer src.Close()
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	series := snap.State.Buildings[0].Recorder.Series
	if len(series) == 0 {
		t.Fatal("snapshot has no trace series to corrupt")
	}
	series[0].Values = append(series[0].Values, 1)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	srv := NewServer()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/twins/restore", "application/octet-stream", &buf)
	if err != nil {
		t.Fatalf("POST restore: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "timestamps") {
		t.Fatalf("POST restore: status %d: %s; want 400 naming the column mismatch", resp.StatusCode, body)
	}
	if ids := srv.reg.ids(); len(ids) != 0 {
		t.Fatalf("rejected restore registered twins %v", ids)
	}
}

// TestServerRestoreRejectsOutOfRangeScheduler pins that a snapshot whose
// adaptive scheduler points past its sample window is a 400 on restore,
// not a panic on the next run that would take down every twin in the
// process, and that the server keeps listing only the twin it had.
func TestServerRestoreRejectsOutOfRangeScheduler(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var created createResponse
	httpJSON(t, client, http.MethodPost, ts.URL+"/twins", Config{Buildings: 1, Shards: 1}, http.StatusCreated, &created)
	httpJSON(t, client, http.MethodPost, ts.URL+"/twins/"+created.ID+"/run", map[string]uint64{"ticks": 64}, http.StatusAccepted, nil)
	waitIdleHTTP(t, client, ts.URL, created.ID, 64)

	resp, err := client.Get(ts.URL + "/twins/" + created.ID + "/snapshot")
	if err != nil {
		t.Fatalf("GET snapshot: %v", err)
	}
	snap, err := ReadSnapshot(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	var sched *adaptive.SchedulerState
	for _, d := range snap.State.Buildings[0].Devices {
		if d.State.Sched != nil {
			sched = d.State.Sched
			break
		}
	}
	if sched == nil {
		t.Fatal("snapshot has no adaptive scheduler state to corrupt")
	}
	sched.WPos = len(sched.Window)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	resp, err = client.Post(ts.URL+"/twins/restore", "application/octet-stream", &buf)
	if err != nil {
		t.Fatalf("POST restore: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "window position") {
		t.Fatalf("POST restore: status %d: %s; want 400 naming the window position", resp.StatusCode, body)
	}
	var list map[string][]string
	httpJSON(t, client, http.MethodGet, ts.URL+"/twins", nil, http.StatusOK, &list)
	if ids := list["twins"]; len(ids) != 1 || ids[0] != created.ID {
		t.Fatalf("GET /twins = %v, want only the original twin %q", ids, created.ID)
	}
}

// TestSnapshotVersionGuard pins the wire-format version check.
func TestSnapshotVersionGuard(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Snapshot{Version: SnapshotVersion + 1}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := ReadSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("ReadSnapshot of future version: err = %v, want version guard", err)
	}
}

// TestChunkTicks pins the runner's chunk rule: 2048 building-ticks per
// chunk, within 32 to 512 ticks.
func TestChunkTicks(t *testing.T) {
	for _, c := range []struct {
		buildings int
		want      uint64
	}{{1, 512}, {3, 512}, {4, 512}, {5, 409}, {16, 128}, {17, 120}, {64, 32}, {256, 32}, {1000, 32}, {8192, 32}} {
		if got := chunkTicks(c.buildings); got != c.want {
			t.Errorf("chunkTicks(%d) = %d, want %d", c.buildings, got, c.want)
		}
	}
}

// TestStatusDoesNotWaitForFleetLock pins that a status read takes only the
// run-queue lock: it must answer while the fleet lock is held alone, as
// Snapshot holds it for a whole export.
func TestStatusDoesNotWaitForFleetLock(t *testing.T) {
	tw, err := NewTwin(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("NewTwin: %v", err)
	}
	defer tw.Close()
	got := make(chan Status, 1)
	tw.mu.Lock()
	go func() { got <- tw.Status() }()
	select {
	case st := <-got:
		tw.mu.Unlock()
		if st.Buildings != testConfig().Buildings || st.Ticks != 0 || st.Pending != 0 {
			t.Fatalf("Status() = %+v, want an idle %d-building twin at tick 0", st, testConfig().Buildings)
		}
	case <-time.After(5 * time.Second):
		tw.mu.Unlock()
		t.Fatal("Status() waited for the fleet lock")
	}
}

// TestTwinReadersWhileRunning drives every route that reads or mutates a
// twin at once while its runner works through a backlog it cannot finish:
// queries, CSV exports, series listings, status reads, events and one
// snapshot must all succeed, and Close must still stop the runner. Run it
// under the race detector (make race-twin): readers share the fleet lock,
// so a write on any read path shows up as a race.
func TestTwinReadersWhileRunning(t *testing.T) {
	const (
		warmTicks = 600
		perKind   = 3 // requests per goroutine
	)
	srv := NewServer()
	defer srv.Close() // stops the runner on early exits; the end of the test checks Close itself
	h := srv.Handler()
	serve := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	tw, err := NewTwin(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("NewTwin: %v", err)
	}
	id := srv.reg.add(tw)
	if err := tw.RunTicks(warmTicks); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	waitIdle(t, tw, warmTicks)
	var name string
	if err := tw.viewBuilding(1, func(sys *core.System) error {
		name = sys.Recorder().Names()[0]
		return nil
	}); err != nil {
		t.Fatalf("viewBuilding: %v", err)
	}
	if err := tw.RunTicks(uint64(1) << 40); err != nil {
		t.Fatalf("backlog run: %v", err)
	}
	for deadline := time.Now().Add(30 * time.Second); tw.Status().Ticks == warmTicks; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("runner did not start on the backlog")
		}
	}

	window := fmt.Sprintf("from_s=0&to_s=%d&step_s=60", warmTicks)
	type request struct {
		method, target, body string
		want                 int
	}
	kinds := []request{
		{http.MethodGet, "/twins/" + id + "/query?building=1&series=" + name + "&agg=mean&" + window, "", http.StatusOK},
		{http.MethodGet, "/twins/" + id + "/query?building=2&format=csv&" + window, "", http.StatusOK},
		{http.MethodGet, "/twins/" + id + "/series?building=0", "", http.StatusOK},
		{http.MethodGet, "/twins/" + id, "", http.StatusOK},
		{http.MethodPost, "/twins/" + id + "/events", `{"kind": "climate", "t_c": 31, "dew_c": 24}`, http.StatusAccepted},
		{http.MethodPost, "/twins/" + id + "/events", `{"kind": "door", "building": 2, "door_s": 15}`, http.StatusAccepted},
	}
	// Two goroutines per kind, so every read path also meets itself.
	var wg sync.WaitGroup
	for _, req := range kinds {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perKind; i++ {
					if rec := serve(req.method, req.target, req.body); rec.Code != req.want {
						t.Errorf("%s %s: status %d (want %d): %s", req.method, req.target, rec.Code, req.want, rec.Body)
					}
				}
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := serve(http.MethodGet, "/twins/"+id+"/snapshot", "")
		if rec.Code != http.StatusOK {
			t.Errorf("snapshot: status %d: %s", rec.Code, rec.Body)
			return
		}
		snap, err := ReadSnapshot(rec.Body)
		if err != nil {
			t.Errorf("snapshot: decode: %v", err)
			return
		}
		if snap.State.Ticks <= warmTicks {
			t.Errorf("snapshot at tick %d, want past the warm-up's %d", snap.State.Ticks, warmTicks)
		}
	}()
	wg.Wait()

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not stop a busy runner")
	}
}

// snapshotStream gob-encodes head and then each building on one encoder,
// the layout WriteSnapshot writes, so a test can cut or bend the stream.
func snapshotStream(t *testing.T, head Snapshot, buildings []core.SystemState) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(&head); err != nil {
		t.Fatalf("encode header: %v", err)
	}
	for i := range buildings {
		if err := enc.Encode(&buildings[i]); err != nil {
			t.Fatalf("encode building %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// v2Snapshot mirrors the version-2 wire graph down to the trace series,
// which a v2 build sent as plain structs (v2Series); gob matches struct
// fields by name, not by type name.
type v2Snapshot struct {
	Version int
	State   struct{ Buildings []v2Building }
}

type v2Building struct{ Recorder struct{ Series []v2Series } }

type v2Series struct {
	Name   string
	Nanos  []int64
	Values []float64
}

// TestReadSnapshotRejectsBadStreams pins the stream's rejections: a stream
// cut after the header or one building short, a header that carries
// buildings or a negative building count, and the version-2 layout (one
// message) fail in ReadSnapshot, and POST /twins/restore answers them with
// 400 and registers no twin. WriteSnapshot refuses to write a stream whose
// building count would not match its header.
func TestReadSnapshotRejectsBadStreams(t *testing.T) {
	src, err := NewTwin(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("NewTwin: %v", err)
	}
	defer src.Close()
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var written bytes.Buffer
	if err := WriteSnapshot(&written, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	buildings := snap.State.Buildings
	n := len(buildings)
	head := *snap
	head.State.Buildings = nil
	if got := snapshotStream(t, head, buildings); !bytes.Equal(got, written.Bytes()) {
		t.Fatal("snapshotStream does not reproduce WriteSnapshot's bytes")
	}
	if _, err := ReadSnapshot(bytes.NewReader(written.Bytes())); err != nil {
		t.Fatalf("ReadSnapshot of the intact stream: %v", err)
	}
	short := *snap
	short.State.Buildings = buildings[:n-1]
	if err := WriteSnapshot(io.Discard, &short); err == nil || !strings.Contains(err.Error(), "buildings") {
		t.Fatalf("WriteSnapshot of %d buildings for a %d-building config: err = %v", n-1, n, err)
	}

	withBuildings := head
	withBuildings.State.Buildings = buildings
	negative := head
	negative.Config.Buildings = -1
	badConfig := head
	badConfig.Config.SampleRetention = -1
	v2 := *snap
	v2.Version = 2
	var v2Body, v2Wire bytes.Buffer
	if err := gob.NewEncoder(&v2Body).Encode(&v2); err != nil {
		t.Fatalf("encode v2 layout: %v", err)
	}
	old := v2Snapshot{Version: 2}
	old.State.Buildings = make([]v2Building, 1)
	old.State.Buildings[0].Recorder.Series = []v2Series{{"zone0.t", []int64{1, 2}, []float64{20, 21}}}
	if err := gob.NewEncoder(&v2Wire).Encode(&old); err != nil {
		t.Fatalf("encode v2 wire types: %v", err)
	}

	srv := NewServer()
	defer srv.Close()
	h := srv.Handler()
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"cut after the header", fmt.Sprintf("building 0 of %d", n), snapshotStream(t, head, nil)},
		{"cut one building short", fmt.Sprintf("building %d of %d", n-1, n), snapshotStream(t, head, buildings[:n-1])},
		{"header carries buildings", fmt.Sprintf("header carries %d buildings", n), snapshotStream(t, withBuildings, buildings)},
		{"negative building count", "negative building count", snapshotStream(t, negative, nil)},
		// Rejected at the header: the buildings that follow are intact, so
		// decoding them would have succeeded.
		{"invalid config", "SampleRetention must be >= 0", snapshotStream(t, badConfig, buildings)},
		{"version 2 layout", "version 2", v2Body.Bytes()},
		// A v2 build's series are plain structs, so gob refuses the body
		// before its version can be read.
		{"version 2 wire types", "SeriesState", v2Wire.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadSnapshot(bytes.NewReader(tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadSnapshot: err = %v, want it to mention %q", err, tc.want)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/twins/restore", bytes.NewReader(tc.body)))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
				t.Fatalf("POST restore: status %d: %s; want 400 mentioning %q", rec.Code, rec.Body, tc.want)
			}
			if ids := srv.reg.ids(); len(ids) != 0 {
				t.Fatalf("rejected restore registered twins %v", ids)
			}
		})
	}
}

// TestRunBacklogOverflowRejected pins that a run request the backlog cannot
// count is a 400 that leaves the backlog as it was. The test holds the
// fleet lock alone, so the runner cannot start a chunk and shrink the
// backlog while it looks.
func TestRunBacklogOverflowRejected(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	h := srv.Handler()
	tw, err := NewTwin(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("NewTwin: %v", err)
	}
	id := srv.reg.add(tw)
	serve := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}

	tw.mu.Lock()
	locked := true
	defer func() {
		if locked {
			tw.mu.Unlock()
		}
	}()
	if rec := serve(http.MethodPost, "/twins/"+id+"/run", `{"ticks": 18446744073709551615}`); rec.Code != http.StatusAccepted {
		t.Fatalf("first run: status %d: %s", rec.Code, rec.Body)
	}
	if rec := serve(http.MethodPost, "/twins/"+id+"/run", `{"ticks": 2}`); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "overflow") {
		t.Fatalf("overflowing run: status %d: %s; want 400 naming the overflow", rec.Code, rec.Body)
	}
	rec := serve(http.MethodGet, "/twins/"+id, "")
	var st statusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s: %v", rec.Code, rec.Body, err)
	}
	if st.Pending != math.MaxUint64 || st.Err != "" {
		t.Fatalf("status = %+v, want pending %d and no error", st.Status, uint64(math.MaxUint64))
	}
	tw.mu.Unlock()
	locked = false
}

// serveWithin sends one GET through h and fails the test if it has not
// answered within a generous 30 s: the bound only tells a hang from an
// answer.
func serveWithin(t *testing.T, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- serve(h, http.MethodGet, target, "") }()
	select {
	case rec := <-done:
		return rec
	case <-time.After(30 * time.Second):
		t.Fatalf("GET %s did not answer", target)
		return nil
	}
}

// TestQueryAnswersWhileRunnerWaitsOnAnotherBuilding pins that a reader
// waits for its own building only. One worker claims buildings 0, 1 and
// 2 in turn; while a reader holds building 2 and the runner, mid-chunk,
// waits to step it, queries on buildings 0 and 1 answer. A fleet-wide
// lock would hold them behind the waiting runner until the reader
// finished, and a max-window CSV export reads one building for 0.4–0.5 s.
func TestQueryAnswersWhileRunnerWaitsOnAnotherBuilding(t *testing.T) {
	const warmTicks = 300
	srv := NewServer()
	defer srv.Close()
	h := srv.Handler()
	cfg := testConfig()
	cfg.Shards = 1
	tw, err := NewTwin(context.Background(), cfg)
	if err != nil {
		t.Fatalf("NewTwin: %v", err)
	}
	id := srv.reg.add(tw)
	if err := tw.RunTicks(warmTicks); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	waitIdle(t, tw, warmTicks)

	// Building 1 reports its ticks, so the test knows when the runner is
	// inside the next chunk, one building before the held one.
	stepping := make(chan struct{}, 1)
	tw.mu.Lock()
	tw.fl.Building(1).Engine().Register(sim.ComponentFunc{ID: "probe", Fn: func(*sim.Env) {
		select {
		case stepping <- struct{}{}:
		default:
		}
	}})
	name := tw.fl.Building(0).Recorder().Names()[0]
	tw.mu.Unlock()

	held, release := make(chan struct{}), make(chan struct{})
	go func() {
		// Building 2 exists and the callback returns nil: no error to see.
		_ = tw.viewBuilding(2, func(*core.System) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	chunk := chunkTicks(cfg.Buildings)
	if err := tw.RunTicks(chunk); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	select {
	case <-stepping:
	case <-time.After(30 * time.Second):
		t.Fatal("the runner did not start its chunk")
	}

	for _, b := range []int{0, 1} {
		target := fmt.Sprintf("/twins/%s/query?building=%d&series=%s&agg=mean&from_s=0&to_s=%d&step_s=60", id, b, name, warmTicks)
		if rec := serveWithin(t, h, target); rec.Code != http.StatusOK {
			t.Fatalf("query on building %d: status %d: %s", b, rec.Code, rec.Body)
		}
	}
	if st := tw.Status(); st.Ticks != warmTicks || st.Pending != chunk {
		t.Fatalf("status %+v, want the chunk still waiting on building 2", st)
	}
	close(release)
	released = true
	waitIdle(t, tw, warmTicks+chunk)
}

// TestRunnerPanicFailsOnlyItsTwin pins that a panic in a module's Step
// fails the twin it happened in, with the panic and its stack in Status,
// and leaves the process and every other twin running. The failed twin
// serves no snapshot, but it answers queries, on the building whose Step
// panicked too: the panic released that building's lock. One twin steps
// its buildings on the runner's goroutine alone, the other on two
// workers.
func TestRunnerPanicFailsOnlyItsTwin(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			cfg := testConfig()
			cfg.Shards = shards
			bad, err := NewTwin(context.Background(), cfg)
			if err != nil {
				t.Fatalf("NewTwin: %v", err)
			}
			defer bad.Close()
			good, err := NewTwin(context.Background(), cfg)
			if err != nil {
				t.Fatalf("NewTwin: %v", err)
			}
			defer good.Close()
			bad.mu.Lock()
			bad.fl.Building(1).Engine().Register(sim.ComponentFunc{ID: "boom", Fn: func(env *sim.Env) {
				if env.Elapsed() == 100*time.Second {
					panic("boom")
				}
			}})
			bad.mu.Unlock()

			if err := bad.RunTicks(300); err != nil {
				t.Fatalf("RunTicks: %v", err)
			}
			if err := good.RunTicks(300); err != nil {
				t.Fatalf("RunTicks: %v", err)
			}
			waitIdle(t, good, 300)
			deadline := time.Now().Add(30 * time.Second)
			for bad.Status().Err == "" && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			st := bad.Status()
			if !strings.Contains(st.Err, "panic: boom") || !strings.Contains(st.Err, "twin_test.go") {
				t.Fatalf("failed twin's status error %q, want the panic and its stack", st.Err)
			}
			if st.Pending != 0 {
				t.Errorf("failed twin keeps %d ticks pending", st.Pending)
			}
			if err := bad.RunTicks(1); err == nil || err.Error() != st.Err {
				t.Errorf("RunTicks on the failed twin: err = %v, want its runner error", err)
			}
			// Its buildings stopped at different ticks inside an epoch.
			if _, err := bad.Snapshot(); !errors.Is(err, fleet.ErrRunFailed) {
				t.Errorf("Snapshot of the failed twin: err = %v, want fleet.ErrRunFailed", err)
			}
			srv := NewServer()
			id := srv.reg.add(bad)
			if rec := serve(srv.Handler(), http.MethodGet, "/twins/"+id+"/snapshot", ""); rec.Code != http.StatusConflict ||
				!strings.Contains(rec.Body.String(), "mid-epoch") {
				t.Errorf("GET snapshot of the failed twin: status %d: %s, want 409", rec.Code, rec.Body)
			}
			for _, b := range []int{1, 0} {
				rec := serveWithin(t, srv.Handler(), fmt.Sprintf("/twins/%s/series?building=%d", id, b))
				var listed struct{ Series []string }
				if err := json.Unmarshal(rec.Body.Bytes(), &listed); err != nil || rec.Code != http.StatusOK || len(listed.Series) == 0 {
					t.Fatalf("series of building %d of the failed twin: status %d: %s", b, rec.Code, rec.Body)
				}
				target := fmt.Sprintf("/twins/%s/query?building=%d&series=%s&agg=last&from_s=0&to_s=100&step_s=10",
					id, b, listed.Series[0])
				if rec := serveWithin(t, srv.Handler(), target); rec.Code != http.StatusOK {
					t.Errorf("query on building %d of the failed twin: status %d: %s", b, rec.Code, rec.Body)
				}
			}
			if err := good.RunTicks(44); err != nil {
				t.Fatalf("RunTicks: %v", err)
			}
			waitIdle(t, good, 344)
		})
	}
}
