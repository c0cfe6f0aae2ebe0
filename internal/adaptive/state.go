package adaptive

import "fmt"

// HistogramState is a Histogram's mutable state. The cached slot width is
// not stored: restore recomputes it from the same (varMin, varMax, n)
// operands, yielding the same float.
//
//bzlint:state ExportState RestoreState
type HistogramState struct {
	VarMin, VarMax float64
	Counts         []uint32
	Total          int
	HasRange       bool
}

// ExportState captures the histogram contents.
func (h *Histogram) ExportState() HistogramState {
	counts := make([]uint32, len(h.counts))
	copy(counts, h.counts)
	return HistogramState{
		VarMin:   h.varMin,
		VarMax:   h.varMax,
		Counts:   counts,
		Total:    h.total,
		HasRange: h.hasRange,
	}
}

// RestoreState overwrites the histogram contents. The receiver must have
// the same slot count the state was exported with.
func (h *Histogram) RestoreState(st HistogramState) error {
	if len(st.Counts) != h.n {
		return fmt.Errorf("adaptive: histogram has %d slots, snapshot has %d", h.n, len(st.Counts))
	}
	h.setRange(st.VarMin, st.VarMax)
	copy(h.counts, st.Counts)
	h.total = st.Total
	h.hasRange = st.HasRange
	return nil
}

// SchedulerState is a Scheduler's mutable state. TrackExact schedulers
// (the Figure 12/13 evaluation mode, never used in assembled systems) are
// not snapshotable: the exact clusterer holds unbounded history.
//
//bzlint:state ExportState RestoreState
type SchedulerState struct {
	Window      []float64
	WPos        int
	WCount      int
	Sum         float64
	SumSq       float64
	Hist        HistogramState
	Lambda      float64
	LambdaOK    bool
	SinceLambda float64
	W           int
	StableRun   int
	SinceSend   float64
	EverSent    bool
}

// ExportState captures the scheduler's learning and timing state.
func (s *Scheduler) ExportState() (SchedulerState, error) {
	if s.exact != nil {
		return SchedulerState{}, fmt.Errorf("adaptive: TrackExact scheduler is not snapshotable")
	}
	window := make([]float64, len(s.window))
	copy(window, s.window)
	return SchedulerState{
		Window:      window,
		WPos:        s.wpos,
		WCount:      s.wcount,
		Sum:         s.sum,
		SumSq:       s.sumSq,
		Hist:        s.hist.ExportState(),
		Lambda:      s.lambda,
		LambdaOK:    s.lambdaOK,
		SinceLambda: s.sinceLambda,
		W:           s.w,
		StableRun:   s.stableRun,
		SinceSend:   s.sinceSend,
		EverSent:    s.everSent,
	}, nil
}

// RestoreState overwrites the scheduler's state. The receiver must have
// been built from the same configuration. A state whose window position,
// window count or period multiplier lies outside the configured bounds
// is rejected before anything is written, since OnSample indexes the
// window by position; on any error the scheduler is left unchanged.
func (s *Scheduler) RestoreState(st SchedulerState) error {
	if s.exact != nil {
		return fmt.Errorf("adaptive: TrackExact scheduler is not snapshotable")
	}
	n := len(s.window)
	switch {
	case len(st.Window) != n:
		return fmt.Errorf("adaptive: scheduler window is %d samples, snapshot has %d", n, len(st.Window))
	case st.WPos < 0 || st.WPos >= n:
		return fmt.Errorf("adaptive: scheduler window position %d outside [0, %d)", st.WPos, n)
	case st.WCount < 0 || st.WCount > n:
		return fmt.Errorf("adaptive: scheduler window count %d outside [0, %d]", st.WCount, n)
	case st.W < 1 || st.W > s.cfg.WMax:
		return fmt.Errorf("adaptive: scheduler period multiplier %d outside [1, %d]", st.W, s.cfg.WMax)
	}
	if err := s.hist.RestoreState(st.Hist); err != nil {
		return err
	}
	copy(s.window, st.Window)
	s.wpos = st.WPos
	s.wcount = st.WCount
	s.sum = st.Sum
	s.sumSq = st.SumSq
	s.lambda = st.Lambda
	s.lambdaOK = st.LambdaOK
	s.sinceLambda = st.SinceLambda
	s.w = st.W
	s.stableRun = st.StableRun
	s.sinceSend = st.SinceSend
	s.everSent = st.EverSent
	return nil
}
