package core

// Shared is a validated, read-only configuration handle that many Systems
// can be assembled from. It exists for fleet-scale instantiation: the
// Config is validated once, stored once, and every System built from the
// handle aliases it instead of carrying a private copy — per-building
// differences (seed, climate boundary, fault plan) ride in the
// per-instance options, none of which edits the Config.
//
// The handle is immutable after construction. Callers must not mutate the
// Config reachable through it; Systems read it concurrently from every
// fleet worker.
type Shared struct {
	cfg Config
}

// NewShared validates cfg and wraps it in a read-only handle.
func NewShared(cfg Config) (*Shared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Shared{cfg: cfg}, nil
}

// NewSystem assembles one System over the shared configuration. Every
// System built from the handle reads its single Config, so a homogeneous
// fleet with varied seeds, climates and fault plans keeps exactly one
// Config in memory.
func (sh *Shared) NewSystem(opts ...Option) (*System, error) {
	var o sysOpts
	for _, opt := range opts {
		opt(&o)
	}
	return assemble(&sh.cfg, &o)
}
