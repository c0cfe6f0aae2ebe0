package twin

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bubblezero/internal/adaptive"
	"bubblezero/internal/core"
	"bubblezero/internal/fault"
	"bubblezero/internal/fleet"
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
	err := tw.View(func(fl *fleet.Fleet) error {
		for i := 0; i < fl.Buildings(); i++ {
			fps = append(fps, fingerprint(t, fl.Building(i)))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("View: %v", err)
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
		{Kind: "fault", Building: 0, Faults: []faultRequest{{Kind: "melted"}}}, // unknown fault kind
	}
	for i, ev := range bad {
		httpJSON(t, client, http.MethodPost, ts.URL+"/twins/"+id+"/events", ev, http.StatusBadRequest, nil)
		_ = i
	}
	httpJSON(t, client, http.MethodPost, ts.URL+"/twins/"+id+"/events",
		eventRequest{Kind: "door", Building: 0, DoorS: 45}, http.StatusAccepted, nil)
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
