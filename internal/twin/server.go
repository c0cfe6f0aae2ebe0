package twin

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fault"
	"bubblezero/internal/fleet"
	"bubblezero/internal/trace"
)

// Server is the digital-twin HTTP API: a registry of live twins behind a
// redesigned query/mutation surface. Reads go through deterministic
// trace queries, writes go through fleet.Apply events — the one mutation
// route a running fleet has — and checkpoints travel as versioned gob.
//
//	POST   /twins                 create a twin from a Config JSON body
//	POST   /twins/restore         create a twin from a snapshot body
//	GET    /twins                 list twin IDs
//	GET    /twins/{id}            status (ticks, backlog, config)
//	DELETE /twins/{id}            stop and remove the twin
//	POST   /twins/{id}/run        {"ticks": n} — queue n ticks
//	POST   /twins/{id}/events     inject one live event (climate/door/fault)
//	GET    /twins/{id}/series     list a building's series names
//	GET    /twins/{id}/query      downsampled read (JSON buckets or CSV)
//	GET    /twins/{id}/snapshot   checkpoint as application/octet-stream
type Server struct {
	reg registry
}

// registry is the ID→twin map. Its own lock stays separate from the
// twins' run locks so a slow simulation never blocks the listing.
//
//bzlint:guards mu twins,next
type registry struct {
	mu    sync.Mutex
	twins map[string]*Twin
	next  int
}

func (r *registry) add(t *Twin) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	id := fmt.Sprintf("t%d", r.next)
	r.twins[id] = t
	return id
}

func (r *registry) get(id string) (*Twin, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.twins[id]
	return t, ok
}

func (r *registry) remove(id string) (*Twin, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.twins[id]
	if ok {
		delete(r.twins, id)
	}
	return t, ok
}

func (r *registry) ids() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.twins))
	//bzlint:allow determinism listing is sorted below; handler output does not depend on iteration order
	for id := range r.twins {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// NewServer returns an empty twin registry.
func NewServer() *Server {
	return &Server{reg: registry{twins: make(map[string]*Twin)}}
}

// Close stops every registered twin.
func (s *Server) Close() {
	for _, id := range s.reg.ids() {
		if t, ok := s.reg.remove(id); ok {
			t.Close()
		}
	}
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /twins", s.handleCreate)
	mux.HandleFunc("POST /twins/restore", s.handleRestore)
	mux.HandleFunc("GET /twins", s.handleList)
	mux.HandleFunc("GET /twins/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /twins/{id}", s.handleDelete)
	mux.HandleFunc("POST /twins/{id}/run", s.handleRun)
	mux.HandleFunc("POST /twins/{id}/events", s.handleEvent)
	mux.HandleFunc("GET /twins/{id}/series", s.handleSeries)
	mux.HandleFunc("GET /twins/{id}/query", s.handleQuery)
	mux.HandleFunc("GET /twins/{id}/snapshot", s.handleSnapshot)
	return mux
}

// maxJSONBody bounds JSON request bodies; snapshot uploads are exempt
// (a large fleet's state is legitimately megabytes).
const maxJSONBody = 1 << 20

// maxQueryBuckets bounds a query window to (to − from)/step + 1 buckets,
// checked before any bucket is built: 1 << 16 buckets is a JSON answer of
// a few MB, and the CSV export builds one such column per named series.
const maxQueryBuckets = 1 << 16

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) twinOr404(w http.ResponseWriter, r *http.Request) (*Twin, string, bool) {
	id := r.PathValue("id")
	t, ok := s.reg.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("twin %q not found", id))
		return nil, id, false
	}
	return t, id, true
}

type createResponse struct {
	ID string `json:"id"`
	Status
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg Config
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("config: %w", err))
		return
	}
	t, err := NewTwin(r.Context(), cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := s.reg.add(t)
	writeJSON(w, http.StatusCreated, createResponse{ID: id, Status: t.Status()})
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	snap, err := ReadSnapshot(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	t, err := RestoreTwin(r.Context(), snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := s.reg.add(t)
	writeJSON(w, http.StatusCreated, createResponse{ID: id, Status: t.Status()})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"twins": s.reg.ids()})
}

type statusResponse struct {
	ID     string `json:"id"`
	Config Config `json:"config"`
	Status
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	t, id, ok := s.twinOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, statusResponse{ID: id, Config: t.Config(), Status: t.Status()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.reg.remove(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("twin %q not found", id))
		return
	}
	t.Close()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	t, _, ok := s.twinOr404(w, r)
	if !ok {
		return
	}
	var req struct {
		Ticks uint64 `json:"ticks"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("run request: %w", err))
		return
	}
	if req.Ticks == 0 {
		writeError(w, http.StatusBadRequest, errors.New("run request: ticks must be > 0"))
		return
	}
	if err := t.RunTicks(req.Ticks); err != nil {
		status := http.StatusConflict // the runner has failed
		if errors.Is(err, errBacklogOverflow) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, t.Status())
}

// eventRequest is the wire form of a live mutation.
type eventRequest struct {
	Kind     string         `json:"kind"` // "climate", "door", or "fault"
	Building int            `json:"building,omitempty"`
	TC       float64        `json:"t_c,omitempty"`
	DewC     float64        `json:"dew_c,omitempty"`
	DoorS    float64        `json:"door_s,omitempty"`
	Faults   []faultRequest `json:"faults,omitempty"`
}

// faultRequest is the wire form of one fault injection; offsets are
// seconds relative to the epoch boundary where the event lands.
type faultRequest struct {
	Kind      string  `json:"kind"`
	AtS       float64 `json:"at_s"`
	ForS      float64 `json:"for_s,omitempty"`
	Node      string  `json:"node,omitempty"`
	Loop      string  `json:"loop,omitempty"`
	Magnitude float64 `json:"magnitude,omitempty"`
}

func (e eventRequest) toEvent() (fleet.Event, error) {
	kind, err := fleet.ParseEventKind(e.Kind)
	if err != nil {
		return fleet.Event{}, err
	}
	door, err := secondsToDuration(e.DoorS)
	if err != nil {
		return fleet.Event{}, fmt.Errorf("door_s: %w", err)
	}
	ev := fleet.Event{
		Kind:     kind,
		Building: e.Building,
		TC:       e.TC,
		DewC:     e.DewC,
		Door:     door,
	}
	for i, fr := range e.Faults {
		fk, err := fault.ParseKind(fr.Kind)
		if err != nil {
			return fleet.Event{}, err
		}
		at, err := secondsToDuration(fr.AtS)
		if err != nil {
			return fleet.Event{}, fmt.Errorf("fault %d at_s: %w", i, err)
		}
		dur, err := secondsToDuration(fr.ForS)
		if err != nil {
			return fleet.Event{}, fmt.Errorf("fault %d for_s: %w", i, err)
		}
		ev.Faults = append(ev.Faults, fault.Event{
			Kind:      fk,
			At:        at,
			For:       dur,
			Node:      fr.Node,
			Loop:      fault.Loop(fr.Loop),
			Magnitude: fr.Magnitude,
		})
	}
	return ev, nil
}

// secondsToDuration converts a wire offset in seconds. It refuses what a
// Duration cannot hold — NaN, ±Inf and anything beyond about ±292 years
// — since converting such a float to an integer is implementation-defined
// (amd64 yields math.MinInt64).
func secondsToDuration(s float64) (time.Duration, error) {
	ns := s * float64(time.Second)
	// float64(math.MaxInt64) is 2^63 exactly; the negated test rejects NaN.
	if !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("%v s is not a representable duration", s)
	}
	return time.Duration(ns), nil
}

func (s *Server) handleEvent(w http.ResponseWriter, r *http.Request) {
	t, _, ok := s.twinOr404(w, r)
	if !ok {
		return
	}
	var req eventRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("event: %w", err))
		return
	}
	ev, err := req.toEvent()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := t.Apply(ev); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"kind": ev.Kind.String(), "status": "queued"})
}

func parseBuilding(r *http.Request, buildings int) (int, error) {
	raw := r.URL.Query().Get("building")
	if raw == "" {
		return 0, nil
	}
	b, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("building: %w", err)
	}
	if b < 0 || b >= buildings {
		return 0, fmt.Errorf("building %d out of range [0, %d)", b, buildings)
	}
	return b, nil
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	t, _, ok := s.twinOr404(w, r)
	if !ok {
		return
	}
	building, err := parseBuilding(r, t.cfg.Buildings)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var names []string
	if err := t.viewBuilding(building, func(sys *core.System) error {
		names = sys.Recorder().Names()
		return nil
	}); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"building": building, "series": names})
}

// queryPoint is one downsampled bucket; value is null when the bucket had
// no data (and, for AggLast, no carry).
type queryPoint struct {
	AtS   float64  `json:"at_s"`
	Value *float64 `json:"value"`
}

type queryResponse struct {
	Building int          `json:"building"`
	Series   string       `json:"series"`
	Agg      string       `json:"agg"`
	Points   []queryPoint `json:"points"`
}

// parseWindow extracts the from_s/to_s/step_s offsets (seconds since the
// simulated start) shared by the query and CSV paths. A window it accepts
// holds between 1 and maxQueryBuckets buckets.
func parseWindow(r *http.Request, start time.Time) (from, to time.Time, step time.Duration, err error) {
	q := r.URL.Query()
	parse := func(key string) (time.Duration, error) {
		raw := q.Get(key)
		if raw == "" {
			return 0, fmt.Errorf("missing query parameter %q", key)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		d, err := secondsToDuration(v)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		return d, nil
	}
	fromD, err := parse("from_s")
	if err != nil {
		return from, to, step, err
	}
	toD, err := parse("to_s")
	if err != nil {
		return from, to, step, err
	}
	if step, err = parse("step_s"); err != nil {
		return from, to, step, err
	}
	if step <= 0 {
		return from, to, step, fmt.Errorf("step_s must be positive, got %v", step)
	}
	from, to = start.Add(fromD), start.Add(toD)
	if to.Before(from) {
		return from, to, step, fmt.Errorf("query window is inverted: to_s precedes from_s")
	}
	// The last bucket's index, as trace.Query computes it; comparing it
	// rather than the count cannot overflow.
	if to.Sub(from)/step >= maxQueryBuckets {
		return from, to, step, fmt.Errorf("query window holds more than %d buckets; raise step_s or narrow the window", maxQueryBuckets)
	}
	return from, to, step, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, _, ok := s.twinOr404(w, r)
	if !ok {
		return
	}
	from, to, step, err := parseWindow(r, t.Start())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		s.handleQueryCSV(w, r, t, from, to, step)
		return
	}
	name := r.URL.Query().Get("series")
	if name == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing query parameter \"series\""))
		return
	}
	agg, err := trace.ParseAgg(r.URL.Query().Get("agg"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	building, err := parseBuilding(r, t.cfg.Buildings)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var pts []trace.QueryPoint
	err = t.viewBuilding(building, func(sys *core.System) error {
		var err error
		pts, err = sys.Recorder().Query(name, trace.Query{From: from, To: to, Step: step, Agg: agg}, nil)
		return err
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, trace.ErrNoSeries) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	resp := queryResponse{Building: building, Series: name, Agg: agg.String(), Points: make([]queryPoint, len(pts))}
	for i, p := range pts {
		qp := queryPoint{AtS: p.At.Sub(t.Start()).Seconds()}
		if p.OK {
			v := p.Value
			qp.Value = &v
		}
		resp.Points[i] = qp
	}
	writeJSON(w, http.StatusOK, resp)
}

// csvFlushTimeout bounds each write of a CSV export. The export streams
// while it holds its building's read lock, so a client that stopped
// reading would hold up that building, and the runner with it, for as
// long as it stayed connected. A client must instead take each 64 KiB
// flush within csvFlushTimeout, a minimum rate of 32 KiB/s, or the export
// fails and frees the building. Only this route has the bound: a
// server-wide write timeout would cut off a large snapshot.
const csvFlushTimeout = 2 * time.Second

// csvResponse is the writer a CSV export streams into. It sets a write
// deadline before each flush, and records that writing began, which
// sends the status.
type csvResponse struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	wrote bool
}

func (c *csvResponse) Write(p []byte) (int, error) {
	c.wrote = true
	// A ResponseWriter that cannot take a deadline streams without one.
	//bzlint:allow determinism a network write deadline, not tick code
	if err := c.rc.SetWriteDeadline(time.Now().Add(csvFlushTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return 0, err
	}
	return c.w.Write(p)
}

// handleQueryCSV streams the sample-and-hold CSV export for one or more
// series (comma-separated "series" parameter; empty means every series).
// An error before the first write is a 400. After it, WriteCSV fails
// only on a write, and the handler sends nothing more: the status is
// out, and net/http closes the connection the failed write broke, so
// the client sees the body cut short.
func (s *Server) handleQueryCSV(w http.ResponseWriter, r *http.Request, t *Twin, from, to time.Time, step time.Duration) {
	building, err := parseBuilding(r, t.cfg.Buildings)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cw := &csvResponse{w: w, rc: http.NewResponseController(w)}
	// Later responses on the connection get no deadline from this one.
	defer func() { _ = cw.rc.SetWriteDeadline(time.Time{}) }()
	err = t.viewBuilding(building, func(sys *core.System) error {
		rec := sys.Recorder()
		names := rec.Names()
		if raw := r.URL.Query().Get("series"); raw != "" {
			names = strings.Split(raw, ",")
		}
		w.Header().Set("Content-Type", "text/csv")
		return rec.WriteCSV(cw, names, from, to, step)
	})
	if err != nil && !cw.wrote {
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t, id, ok := s.twinOr404(w, r)
	if !ok {
		return
	}
	snap, err := t.Snapshot()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, fleet.ErrRunFailed) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.twinsnap", id))
	if err := WriteSnapshot(w, snap); err != nil {
		// The body is already streaming; nothing recoverable to send.
		return
	}
}
