// Package statecov is the statecov analyzer fixture: a fully threaded
// state struct (negative case), a struct with unthreaded, unexported,
// and unserializable fields (positive cases), a per-field waiver, a
// directive naming missing functions, a directive on a non-struct, and
// two structs that encode themselves: one threads every field, an
// unexported one among them, through its GobEncode and GobDecode
// (negative case), one's GobDecode forgets a field, exported or not
// (positive cases).
package statecov

import "time"

// Machine is the live object the state structs snapshot.
type Machine struct {
	a float64
	b int
	t time.Time
	n Nest
}

// GoodState is fully threaded through Export and Restore — every line
// below is a negative case.
//
//bzlint:state Export Restore
type GoodState struct {
	A  float64
	B  int
	At time.Time // self-serializing via MarshalBinary: no gob finding
}

// BadState exercises the positive cases: an unthreaded field, a
// gob-invisible unexported field, unserializable field types, a field
// reaching a struct with unexported fields, and a waived field.
//
//bzlint:state Export Restore
type BadState struct {
	Seen    float64
	Dropped float64  // want `field BadState.Dropped is not referenced in capture function Export` `field BadState.Dropped is not referenced in restore function Restore`
	hidden  int      // want `unexported field BadState.hidden is invisible to gob`
	Fn      func()   // want `field BadState.Fn cannot round-trip through gob: func types are not serializable`
	Ch      chan int // want `field BadState.Ch cannot round-trip through gob: chan types are not serializable`
	In      Nest     // want `field BadState.In cannot round-trip through gob: reaches struct with unexported field x, which gob drops silently`
	//bzlint:allow statecov derived cache in this fixture, rebuilt on restore
	Waived float64
}

// Nest has an unexported field, making any state field of this type
// gob-invisible in part.
type Nest struct {
	x int
}

// Orphan names capture/restore functions the package does not declare.
//
//bzlint:state CaptureMissing RestoreMissing
type Orphan struct { // want `state struct Orphan names CaptureMissing in //bzlint:state, but package statecov declares no such function` `state struct Orphan names RestoreMissing in //bzlint:state, but package statecov declares no such function`
	X int
}

// NotStruct cannot carry field coverage at all.
//
//bzlint:state Export Restore
type NotStruct int // want `//bzlint:state directive on NotStruct, which is not a struct type`

// Export captures every threaded field of both annotated structs.
func Export(m *Machine) (GoodState, BadState) {
	b := BadState{Seen: m.a}
	b.hidden = m.b
	b.Fn = nil
	b.Ch = nil
	b.In = m.n
	return GoodState{A: m.a, B: m.b, At: m.t}, b
}

// Restore patches every threaded field of both annotated structs.
func Restore(m *Machine, g GoodState, b BadState) {
	m.a = g.A + b.Seen
	m.b = g.B + b.hidden
	m.t = g.At
	m.n = b.In
	if b.Fn != nil {
		b.Fn()
	}
	if b.Ch != nil {
		close(b.Ch)
	}
}

// SelfGood encodes itself and threads every field through Export,
// Restore, GobEncode and GobDecode — a negative case. Its codec carries
// the unexported c, so gob not seeing it is no finding.
//
//bzlint:state Export Restore
type SelfGood struct {
	A float64
	B float64
	c float64
}

// SelfForgets encodes itself, but its GobDecode never sets Lost or lost,
// so a checkpoint would drop them although Export and Restore thread
// them.
//
//bzlint:state Export Restore
type SelfForgets struct {
	Kept float64
	Lost float64 // want `field SelfForgets.Lost is not referenced in restore function GobDecode`
	lost float64 // want `field SelfForgets.lost is not referenced in restore function GobDecode`
	//bzlint:allow statecov derived in this fixture, recomputed after decode
	Waived float64
}

// Export captures the self-encoding states.
func (m *Machine) Export() (SelfGood, SelfForgets) {
	return SelfGood{A: m.a, B: m.a, c: m.a}, SelfForgets{Kept: m.a, Lost: m.a, lost: m.a, Waived: m.a}
}

// Restore patches the self-encoding states back.
func (m *Machine) Restore(g SelfGood, f SelfForgets) {
	m.a = g.A + g.B + g.c + f.Kept + f.Lost + f.lost + f.Waived
}

// pack and unpack stand in for a real codec.
func pack(vs ...float64) []byte             { return nil }
func unpack(b []byte, vs ...*float64) error { return nil }

func (s SelfGood) GobEncode() ([]byte, error) { return pack(s.A, s.B, s.c), nil }
func (s *SelfGood) GobDecode(b []byte) error  { return unpack(b, &s.A, &s.B, &s.c) }

func (s SelfForgets) GobEncode() ([]byte, error) { return pack(s.Kept, s.Lost, s.lost, s.Waived), nil }
func (s *SelfForgets) GobDecode(b []byte) error  { return unpack(b, &s.Kept) }
