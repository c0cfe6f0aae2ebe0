package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
)

// RNG is a deterministic random source handed to components. Each named
// stream is derived from the engine seed so that adding a new consumer of
// randomness does not perturb the draws seen by existing consumers — a
// property that keeps regression baselines stable as the simulator grows.
type RNG struct {
	seed uint64

	// streams records every generator handed out, in creation order, so a
	// snapshot can capture and restore the exact PCG position of each one.
	// Construction is deterministic, so a rebuilt system creates the same
	// streams in the same order — the pairing the restore path relies on.
	streams []rngStream
}

// rngStream pairs a handed-out generator's name with the PCG source
// backing it (rand.Rand draws straight from the source, so the source
// state is the whole generator state).
type rngStream struct {
	name string
	pcg  *rand.PCG
}

// NewRNG returns a root RNG for the given seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{seed: seed}
}

// Stream returns an independent *rand.Rand derived from the root seed and
// the stream name. Calling Stream twice with the same name yields two
// generators that produce identical sequences.
func (r *RNG) Stream(name string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	s1 := r.seed ^ h.Sum64()
	// A second, differently salted hash decorrelates the two PCG words.
	h2 := fnv.New64a()
	_, _ = h2.Write([]byte(name))
	_, _ = h2.Write([]byte{0x9e, 0x37, 0x79, 0xb9})
	s2 := (r.seed * 0x9e3779b97f4a7c15) ^ h2.Sum64()
	pcg := rand.NewPCG(s1, s2)
	r.streams = append(r.streams, rngStream{name: name, pcg: pcg})
	return rand.New(pcg)
}

// exportStreams captures every handed-out generator's PCG state in
// creation order.
func (r *RNG) exportStreams() ([]StreamState, error) {
	out := make([]StreamState, len(r.streams))
	for i, s := range r.streams {
		b, err := s.pcg.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("sim: rng stream %q: %w", s.name, err)
		}
		out[i] = StreamState{Name: s.name, PCG: b}
	}
	return out, nil
}

// restoreStreams overwrites each handed-out generator's PCG state with the
// captured one. The receiver must have created the same streams in the
// same order as the RNG the states were exported from.
func (r *RNG) restoreStreams(states []StreamState) error {
	if len(states) != len(r.streams) {
		return fmt.Errorf("sim: rng stream count mismatch: have %d, snapshot has %d",
			len(r.streams), len(states))
	}
	for i, st := range states {
		s := r.streams[i]
		if s.name != st.Name {
			return fmt.Errorf("sim: rng stream %d is %q, snapshot has %q", i, s.name, st.Name)
		}
		if err := s.pcg.UnmarshalBinary(st.PCG); err != nil {
			return fmt.Errorf("sim: rng stream %q: %w", s.name, err)
		}
	}
	return nil
}

// Seed returns the root seed.
//
//bzlint:allow testonly core.TestSharedSystemsReadOneConfig checks each option's seed reached the engine
func (r *RNG) Seed() uint64 { return r.seed }
