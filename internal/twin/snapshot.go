package twin

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"

	"bubblezero/internal/core"
	"bubblezero/internal/fleet"
)

// SnapshotVersion is the wire-format version WriteSnapshot stamps and
// ReadSnapshot enforces. Bump it on any incompatible change to the
// snapshot graph (fleet.State and everything it embeds) or to the stream
// layout; a version mismatch is a hard error, never a silent partial
// decode. Version 3 streams one message per building after a header, and
// trace series travel in their own compact codec (trace.SeriesState).
const SnapshotVersion = 3

// Snapshot is a twin checkpoint: the config the fleet was built from —
// config expansion and fleet construction are deterministic, so the
// config IS the structural half of the snapshot — plus the fleet's full
// mutable state, event journal included.
//
// The encoding is gob: float64 payloads round-trip bit-exactly (gob
// transmits the IEEE bits, NaN included, and so does the trace series
// codec), which is what makes a restored twin's remaining run
// bit-identical to an uninterrupted one rather than merely close. A
// snapshot taken at tick T never re-pins a golden epoch: the restored run
// continues the original sample streams.
//
//bzlint:state Snapshot RestoreTwin
type Snapshot struct {
	//bzlint:allow statecov restore only validates Version (ReadSnapshot rejects mismatches); there is nothing to patch into the rebuilt twin
	Version int
	Config  Config
	State   fleet.State
}

// WriteSnapshot stamps the current version and writes the snapshot as a
// stream of gob messages on one encoder: a header (the Snapshot with its
// buildings left out), then each building's state in order. Gob's
// buffer holds one message at a time, so it stays about one building
// long, and a reader can decode the first buildings while later ones are
// still being encoded.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if n := len(s.State.Buildings); n != s.Config.Buildings {
		return fmt.Errorf("twin: encode snapshot: %d buildings in the state, %d in the config", n, s.Config.Buildings)
	}
	s.Version = SnapshotVersion
	head := *s
	head.State.Buildings = nil
	enc := gob.NewEncoder(w)
	if err := enc.Encode(&head); err != nil {
		return fmt.Errorf("twin: encode snapshot: %w", err)
	}
	for i := range s.State.Buildings {
		if err := enc.Encode(&s.State.Buildings[i]); err != nil {
			return fmt.Errorf("twin: encode snapshot building %d: %w", i, err)
		}
	}
	return nil
}

// ReadSnapshot decodes a WriteSnapshot stream. It checks the header's
// version before reading anything else, and the header's config before
// decoding any building, then reads exactly the Config.Buildings building
// messages the header announces. The count is untrusted, so nothing is
// allocated from it: each building is decoded, then appended, and a short
// stream fails at the first missing one.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	dec := gob.NewDecoder(r)
	s, _, err := readHeader(dec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.Config.Buildings; i++ {
		b, err := readBuilding(dec, i, s.Config.Buildings)
		if err != nil {
			return nil, err
		}
		s.State.Buildings = append(s.State.Buildings, *b)
	}
	return s, nil
}

// readHeader decodes and checks a snapshot stream's header: its version
// first, then that it carries no buildings, and its config. It returns
// the config's fleet expansion too.
func readHeader(dec *gob.Decoder) (*Snapshot, fleet.Config, error) {
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fleet.Config{}, fmt.Errorf("twin: decode snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fleet.Config{}, fmt.Errorf("twin: snapshot version %d, this build reads %d", s.Version, SnapshotVersion)
	}
	if n := len(s.State.Buildings); n != 0 {
		return nil, fleet.Config{}, fmt.Errorf("twin: decode snapshot: header carries %d buildings", n)
	}
	if s.Config.Buildings < 0 {
		return nil, fleet.Config{}, fmt.Errorf("twin: decode snapshot: negative building count %d", s.Config.Buildings)
	}
	fc, err := s.Config.FleetConfig()
	if err != nil {
		return nil, fleet.Config{}, fmt.Errorf("twin: decode snapshot: %w", err)
	}
	return &s, fc, nil
}

// readBuilding decodes building i of a stream whose header announced n.
func readBuilding(dec *gob.Decoder, i, n int) (*core.SystemState, error) {
	var b core.SystemState
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("twin: decode snapshot building %d of %d: %w", i, n, err)
	}
	return &b, nil
}

// readTwin restores a twin from a WriteSnapshot stream as it arrives,
// which is how POST /twins/restore takes its body. It reads and checks
// the header as ReadSnapshot does, then hands fleet.Restore one building
// at a time: this goroutine decodes building i+1 while fleet.Restore's
// own builds and restores building i. A building is built only once its
// message has decoded, so the header's building count allocates nothing.
// A decode error comes back as readBuilding made it, and a restore error
// as fleet.Restore did.
func readTwin(ctx context.Context, r io.Reader) (*Twin, error) {
	dec := gob.NewDecoder(r)
	s, fc, err := readHeader(dec)
	if err != nil {
		return nil, err
	}
	fl, err := fleet.Restore(ctx, fc, s.State.Ticks, s.State.Journal, func(i int) (*core.SystemState, error) {
		return readBuilding(dec, i, fc.Buildings)
	})
	if err != nil {
		return nil, err
	}
	return startTwin(s.Config, fc.Base.Start, fl), nil
}
