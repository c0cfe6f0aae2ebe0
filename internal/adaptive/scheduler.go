package adaptive

import (
	"fmt"
	"math"
)

// Default parameters from the paper (§IV-B and §V-C).
const (
	// DefaultN is the histogram size chosen in Figure 12 ("we select
	// N = 40 as the default setting").
	DefaultN = 40
	// DefaultWMax is the maximum transmission-period multiplier ("We set
	// the maximum w to be 32").
	DefaultWMax = 32
	// DefaultStableRuns is the number of successive stable sampling
	// periods before T_snd doubles ("T_snd is doubled if the variance does
	// not exceed the threshold after 10 successive T_spls").
	DefaultStableRuns = 10
	// DefaultWindow is the sliding-window length (in samples) for the
	// variance computation.
	DefaultWindow = 8
	// DefaultLambdaPeriodS is the λ recomputation period ("the updating of
	// λ is periodical, which is empirically set to be 20 minutes").
	DefaultLambdaPeriodS = 20 * 60
)

// Sampling periods per data type (§IV-B: "the sampling period T_spl for
// temperature, humidity, CO2 concentration sensors in BubbleZERO is set to
// be 3s, 2s, and 4s, respectively").
const (
	TsplTemperatureS = 3
	TsplHumidityS    = 2
	TsplCO2S         = 4
)

// Config parameterises a Scheduler.
type Config struct {
	// TsplS is the sampling period in seconds.
	TsplS float64
	// Window is the sliding-window length in samples.
	Window int
	// N is the histogram slot count.
	N int
	// WMax is the maximum period multiplier.
	WMax int
	// StableRuns is the number of consecutive stable samples required to
	// double w.
	StableRuns int
	// LambdaPeriodS is the seconds between λ recomputations.
	LambdaPeriodS float64
	// TrackExact additionally maintains the exact clusterer as ground
	// truth and records decision accuracy (costs unbounded memory; used
	// for the Figure 12/13 evaluation, not on real motes).
	TrackExact bool
}

// DefaultConfig returns the paper's configuration for the given sampling
// period.
func DefaultConfig(tsplS float64) Config {
	return Config{
		TsplS:         tsplS,
		Window:        DefaultWindow,
		N:             DefaultN,
		WMax:          DefaultWMax,
		StableRuns:    DefaultStableRuns,
		LambdaPeriodS: DefaultLambdaPeriodS,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.TsplS <= 0:
		return fmt.Errorf("adaptive: TsplS must be > 0, got %v", c.TsplS)
	case c.Window < 2:
		return fmt.Errorf("adaptive: Window must be >= 2, got %d", c.Window)
	case c.N < 2:
		return fmt.Errorf("adaptive: N must be >= 2, got %d", c.N)
	case c.WMax < 1:
		return fmt.Errorf("adaptive: WMax must be >= 1, got %d", c.WMax)
	case c.StableRuns < 1:
		return fmt.Errorf("adaptive: StableRuns must be >= 1, got %d", c.StableRuns)
	case c.LambdaPeriodS <= 0:
		return fmt.Errorf("adaptive: LambdaPeriodS must be > 0, got %v", c.LambdaPeriodS)
	}
	return nil
}

// Event is the outcome of one sampling step.
type Event struct {
	// Send reports whether the device transmits this sample.
	Send bool
	// Transition reports whether the variance classified as a transition
	// (variance > λ) at this step.
	Transition bool
	// TsndS is the transmission period in effect after this step.
	TsndS float64
	// Variance is the sliding-window variance, NaN until the window fills.
	Variance float64
}

// Scheduler implements the bt-device transmission logic. Drive it by
// calling OnSample once per sampling period with the latest sensor
// reading.
type Scheduler struct {
	cfg Config

	window []float64
	wpos   int
	wcount int
	sum    float64
	sumSq  float64

	hist *Histogram

	lambda      float64
	lambdaOK    bool
	sinceLambda float64

	w         int
	stableRun int
	sinceSend float64
	everSent  bool

	// truth is the ground-truth scoring state, allocated only under
	// TrackExact so that mote schedulers do not carry it.
	truth *groundTruth
}

// groundTruth is a TrackExact scheduler's scoring state: the exact
// clusterer, the exact threshold refreshed on the same cadence as λ, and
// the decision tallies behind Accuracy and RecentAccuracy.
type groundTruth struct {
	exact *ExactClusterer
	// feeds reports whether this scheduler adds its variances to exact.
	// ReplayAccuracy shares one clusterer among schedulers replaying the
	// same stream: the first one feeds it, the others only read.
	feeds bool

	lambda float64
	ok     bool

	decisions  int
	matched    int
	recent     [recentWindow]bool // ring of recent decision matches
	recentPos  int
	recentFull bool
}

// recentWindow is the size of the rolling decision-accuracy window used by
// RecentAccuracy (the Figure 13 "accuracy as time elapses" curve).
const recentWindow = 256

// NewScheduler returns a scheduler for the given configuration.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hist, err := NewHistogram(cfg.N)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:    cfg,
		window: make([]float64, cfg.Window),
		hist:   hist,
		w:      1,
	}
	if cfg.TrackExact {
		s.truth = &groundTruth{exact: &ExactClusterer{}, feeds: true}
	}
	return s, nil
}

// Config returns the scheduler configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// TsndS returns the current transmission period in seconds.
func (s *Scheduler) TsndS() float64 { return float64(s.w) * s.cfg.TsplS }

// Histogram exposes the underlying histogram (for RAM accounting and the
// periodic reset policy).
func (s *Scheduler) Histogram() *Histogram { return s.hist }

// Accuracy returns the fraction of stable/transition decisions that
// matched the exact-clustering ground truth, and the number of decisions
// made. Requires TrackExact; returns 0, 0 otherwise.
func (s *Scheduler) Accuracy() (frac float64, decisions int) {
	if s.truth == nil || s.truth.decisions == 0 {
		return 0, 0
	}
	return float64(s.truth.matched) / float64(s.truth.decisions), s.truth.decisions
}

// ExactThresholds returns every ground-truth threshold the scheduler's
// exact clusterer has answered, in increasing log length: the seed for a
// later replay of the same readings (ReplayAccuracy). Requires
// TrackExact; returns nil otherwise.
func (s *Scheduler) ExactThresholds() []ExactThreshold {
	if s.truth == nil {
		return nil
	}
	return s.truth.exact.ExactThresholds()
}

// RecentAccuracy returns the decision accuracy over the most recent
// window of decisions (up to 256), and the window size. Requires
// TrackExact.
func (s *Scheduler) RecentAccuracy() (frac float64, window int) {
	g := s.truth
	if g == nil {
		return 0, 0
	}
	n := recentWindow
	if !g.recentFull {
		n = g.recentPos
	}
	if n == 0 {
		return 0, 0
	}
	matched := 0
	for _, m := range g.recent[:n] {
		if m {
			matched++
		}
	}
	return float64(matched) / float64(n), n
}

// variance returns the sliding-window variance var(X) = E[X²] − (E[X])²,
// clamped at zero against floating-point cancellation.
func (s *Scheduler) variance() float64 {
	n := float64(s.wcount)
	mean := s.sum / n
	v := s.sumSq/n - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// OnSample advances the scheduler by one sampling period with the given
// reading and returns the resulting event.
func (s *Scheduler) OnSample(reading float64) Event {
	// Slide the window.
	if s.wcount == s.cfg.Window {
		old := s.window[s.wpos]
		s.sum -= old
		s.sumSq -= old * old
	} else {
		s.wcount++
	}
	s.window[s.wpos] = reading
	s.sum += reading
	s.sumSq += reading * reading
	// Wrap with a compare instead of % — the divide is measurable on the
	// per-sample path and the increment is always < Window.
	if s.wpos++; s.wpos == s.cfg.Window {
		s.wpos = 0
	}

	s.sinceSend += s.cfg.TsplS
	s.sinceLambda += s.cfg.TsplS

	ev := Event{Variance: math.NaN(), TsndS: s.TsndS()}
	if s.wcount < s.cfg.Window {
		// Window not yet full: behave as stable with the initial period.
		if !s.everSent || s.sinceSend >= s.TsndS() {
			ev.Send = true
			s.sinceSend = 0
			s.everSent = true
		}
		return ev
	}

	v := s.variance()
	ev.Variance = v
	loBefore, hiBefore, okBefore := s.hist.Range()
	s.hist.Add(v)
	if g := s.truth; g != nil {
		if g.feeds {
			g.exact.Add(v)
		}
		// A histogram rescale is where the approximation error enters
		// (old counts are re-rounded onto the new grid) while the device's
		// own λ stays stale until its periodic update. Refreshing the
		// ground truth at these instants is what produces the paper's
		// lower accuracy "before sufficient external events are
		// encountered" (Figure 13).
		//bzlint:allow floateq rescale detection compares stored bounds, copied not recomputed
		if lo, hi, ok := s.hist.Range(); ok != okBefore || lo != loBefore || hi != hiBefore {
			g.refresh()
		}
	}

	// Periodic λ update (also bootstraps the first λ). The ground-truth
	// threshold refreshes on the same cadence so the accuracy comparison
	// is like-for-like.
	if !s.lambdaOK || s.sinceLambda >= s.cfg.LambdaPeriodS {
		if l, ok := s.hist.Threshold(); ok {
			s.lambda = l
			s.lambdaOK = true
			s.sinceLambda = 0
		}
		if s.truth != nil {
			s.truth.refresh()
		}
	}

	transition := s.lambdaOK && v > s.lambda
	ev.Transition = transition

	if s.truth != nil && s.lambdaOK {
		s.truth.score(v, transition)
	}

	if transition {
		// "The device adjusts T_snd the same as T_spl and immediately
		// resets the timer using the updated T_snd" — an expired timer
		// sends at once.
		s.w = 1
		s.stableRun = 0
		ev.Send = true
		s.sinceSend = 0
		s.everSent = true
		ev.TsndS = s.TsndS()
		return ev
	}

	s.stableRun++
	if s.stableRun >= s.cfg.StableRuns && s.w < s.cfg.WMax {
		s.w *= 2
		if s.w > s.cfg.WMax {
			s.w = s.cfg.WMax
		}
		s.stableRun = 0
	}
	ev.TsndS = s.TsndS()

	if !s.everSent || s.sinceSend >= s.TsndS() {
		ev.Send = true
		s.sinceSend = 0
		s.everSent = true
	}
	return ev
}

// refresh takes the exact clusterer's current threshold, keeping the last
// one while the clusterer has none.
func (g *groundTruth) refresh() {
	if l, ok := g.exact.Threshold(); ok {
		g.lambda = l
		g.ok = true
	}
}

// score records whether the scheduler's transition decision for variance
// v matches the exact threshold's.
func (g *groundTruth) score(v float64, transition bool) {
	g.decisions++
	matched := (g.ok && v > g.lambda) == transition
	if matched {
		g.matched++
	}
	g.recent[g.recentPos] = matched
	if g.recentPos++; g.recentPos == recentWindow {
		g.recentPos = 0
		g.recentFull = true
	}
}

// ReplayAccuracy replays one reading stream through a TrackExact scheduler
// per configuration and returns each one's Accuracy. The schedulers step
// in lockstep, in index order, against one shared exact clusterer: the
// variance fed to it depends only on the readings and the window, so the
// first scheduler adds it and the others read the thresholds it records.
// The result equals that of independent schedulers, at the cost of one
// ground truth instead of one per configuration. Every configuration must
// have the first one's Window.
//
// truth, when not nil, seeds the shared clusterer (ExactClusterer.Seed)
// with the ground truth of an earlier pass, such as the ExactThresholds
// of a TrackExact scheduler that ran on these readings. It is valid only
// for the same readings and the same Window; the result is then the same
// as unseeded, and only the lengths truth lacks are evaluated.
func ReplayAccuracy(readings []float64, cfgs []Config, truth []ExactThreshold) (frac []float64, decisions []int, err error) {
	exact := &ExactClusterer{}
	exact.Seed(truth)
	return replayAccuracy(readings, cfgs, exact)
}

// replayAccuracy is ReplayAccuracy with the shared clusterer supplied.
func replayAccuracy(readings []float64, cfgs []Config, exact *ExactClusterer) (frac []float64, decisions []int, err error) {
	scheds := make([]*Scheduler, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Window != cfgs[0].Window {
			return nil, nil, fmt.Errorf("adaptive: config %d has window %d, config 0 has %d; a shared ground truth needs one window",
				i, cfg.Window, cfgs[0].Window)
		}
		cfg.TrackExact = true
		s, err := NewScheduler(cfg)
		if err != nil {
			return nil, nil, err
		}
		s.truth.exact, s.truth.feeds = exact, i == 0
		scheds[i] = s
	}
	for _, v := range readings {
		for _, s := range scheds {
			s.OnSample(v)
		}
	}
	frac = make([]float64, len(cfgs))
	decisions = make([]int, len(cfgs))
	for i, s := range scheds {
		frac[i], decisions[i] = s.Accuracy()
	}
	return frac, decisions, nil
}
