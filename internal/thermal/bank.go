package thermal

import (
	"fmt"

	"bubblezero/internal/psychro"
)

// RoomBank owns the zone state of many buildings in contiguous
// structure-of-arrays storage: one t/w/co2 array of n×NumZones floats
// (building i's zones at [i·NumZones, (i+1)·NumZones)) plus per-building
// kernelTerms/boundaryTerms/zoneInputs rows. Each banked Room is a view
// into its row — the same pointer layout an unbanked Room gets from its
// private roomRows — so every Room method, including the unrolled
// StepBatch kernel, runs unchanged and per-building results are
// bit-identical to a standalone Room by construction.
//
// No production path uses a bank: a fleet steps each building's room
// inside that building's own engine, which measured as fast or faster at
// every fleet shape. RoomBank remains as the subject of the benchmark's
// thermal.bank_step_ns_per_row layer metric, which times StepAll over
// packed rows.
type RoomBank struct {
	t, w, co2 []float64 // len n*NumZones
	kern      []kernelTerms
	bnd       []boundaryTerms
	in        []zoneInputs
	rooms     []*Room
}

// NewRoomBank allocates storage for n buildings' zone state. Rows are
// bound one at a time via RoomBank.NewRoom / NewRoomAtOutdoor; binding
// distinct rows from different goroutines is safe (disjoint writes).
func NewRoomBank(n int) (*RoomBank, error) {
	if n <= 0 {
		return nil, fmt.Errorf("thermal: RoomBank size must be > 0, got %d", n)
	}
	return &RoomBank{
		t:     make([]float64, n*NumZones),
		w:     make([]float64, n*NumZones),
		co2:   make([]float64, n*NumZones),
		kern:  make([]kernelTerms, n),
		bnd:   make([]boundaryTerms, n),
		in:    make([]zoneInputs, n),
		rooms: make([]*Room, n),
	}, nil
}

// NewRoom builds a Room whose state lives in the bank's row — the banked
// counterpart of the package-level NewRoom. The slice-to-array-pointer
// views carry the compile-time NumZones length, so the kernel's accesses
// stay bounds-check-free exactly as on the owned-rows path.
func (bk *RoomBank) NewRoom(row int, cfg Config, initial psychro.State, initialCO2 float64) (*Room, error) {
	if row < 0 || row >= len(bk.rooms) {
		return nil, fmt.Errorf("thermal: RoomBank row %d out of range [0, %d)", row, len(bk.rooms))
	}
	if bk.rooms[row] != nil {
		return nil, fmt.Errorf("thermal: RoomBank row %d already bound", row)
	}
	base := row * NumZones
	r := &Room{
		t:    (*[NumZones]float64)(bk.t[base : base+NumZones]),
		w:    (*[NumZones]float64)(bk.w[base : base+NumZones]),
		co2:  (*[NumZones]float64)(bk.co2[base : base+NumZones]),
		kern: &bk.kern[row],
		bnd:  &bk.bnd[row],
		in:   &bk.in[row],
	}
	if err := r.init(cfg, initial, initialCO2); err != nil {
		return nil, err
	}
	bk.rooms[row] = r
	return r, nil
}

// NewRoomAtOutdoor builds a banked room in equilibrium with its configured
// outdoor condition (see the package-level NewRoomAtOutdoor).
func (bk *RoomBank) NewRoomAtOutdoor(row int, cfg Config) (*Room, error) {
	return bk.NewRoom(row, cfg, cfg.Outdoor, cfg.OutdoorCO2PPM)
}

// StepAll advances every bound room by dt seconds in one pass over the
// bank's packed arrays, in row order; unbound rows are skipped. Each row
// runs the identical unrolled StepBatch body a standalone Room runs, so
// per-building arithmetic — and therefore per-building output — is
// unchanged.
//
//bzlint:hotpath
func (bk *RoomBank) StepAll(dt float64) {
	for _, r := range bk.rooms {
		if r != nil {
			r.StepBatch(dt)
		}
	}
}
