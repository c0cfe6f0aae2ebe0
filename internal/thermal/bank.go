package thermal

import "fmt"

// RoomBank is a row-indexed set of Rooms, each its own allocation, stepped
// together by StepAll.
//
// No production path uses a bank: a fleet steps each building's room
// inside that building's own engine. RoomBank remains as the subject of
// the benchmark's thermal.bank_step_ns_per_row layer metric, which times
// StepAll over one shard's worth of rooms.
type RoomBank struct {
	rooms []*Room
}

// NewRoomBank returns a bank of n unbound rows. Rows are bound one at a
// time via NewRoomAtOutdoor; binding distinct rows from different
// goroutines is safe (disjoint writes).
func NewRoomBank(n int) (*RoomBank, error) {
	if n <= 0 {
		return nil, fmt.Errorf("thermal: RoomBank size must be > 0, got %d", n)
	}
	return &RoomBank{rooms: make([]*Room, n)}, nil
}

// NewRoomAtOutdoor builds the room for row in equilibrium with its
// configured outdoor condition (see the package-level NewRoomAtOutdoor)
// and binds it to that row.
func (bk *RoomBank) NewRoomAtOutdoor(row int, cfg Config) (*Room, error) {
	if row < 0 || row >= len(bk.rooms) {
		return nil, fmt.Errorf("thermal: RoomBank row %d out of range [0, %d)", row, len(bk.rooms))
	}
	if bk.rooms[row] != nil {
		return nil, fmt.Errorf("thermal: RoomBank row %d already bound", row)
	}
	r, err := NewRoomAtOutdoor(cfg)
	if err != nil {
		return nil, err
	}
	bk.rooms[row] = r
	return r, nil
}

// StepAll advances every bound room by dt seconds, in row order; unbound
// rows are skipped.
//
//bzlint:hotpath
func (bk *RoomBank) StepAll(dt float64) {
	for _, r := range bk.rooms {
		if r != nil {
			r.StepBatch(dt)
		}
	}
}
