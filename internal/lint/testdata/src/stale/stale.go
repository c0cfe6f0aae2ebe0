// Package stale is the staleallow fixture: one consumed //bzlint:ordered
// waiver (not reported), one ordered waiver with no map range left, one
// allow waiver whose finding is gone, one //bzlint:mutroute member that
// still calls its route's setter (not reported), and one that calls none.
package stale

// Sum consumes its waiver: the map range below is a real diagnostic the
// waiver suppresses.
func Sum(m map[string]int) int {
	s := 0
	//bzlint:ordered sum is commutative, iteration order is immaterial
	for _, v := range m {
		s += v
	}
	return s
}

// Plain has no map range left; its ordered waiver is stale.
func Plain() int {
	//bzlint:ordered the loop this excused was deleted
	return 1
}

// Ratio has no float comparison left; its allow waiver is stale.
func Ratio() float64 {
	//bzlint:allow floateq the comparison this excused was deleted
	return 2.5
}

// Room is the state the fixture route guards.
type Room struct {
	occ int
}

// SetOcc is the route's setter.
//
//bzlint:mutsetter stale.Route
func (r *Room) SetOcc(n int) {
	r.occ = n
}

// Admit still calls the setter; its membership is live.
//
//bzlint:mutroute stale.Route audited entry point of this fixture
func Admit(r *Room, n int) {
	r.SetOcc(n)
}

// Orphan calls no setter of its route; its membership is stale.
//
//bzlint:mutroute stale.Route the setter call this admitted was deleted
func Orphan(r *Room) int {
	return r.occ
}
