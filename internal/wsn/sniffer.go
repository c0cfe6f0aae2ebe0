package wsn

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Sniffer is the analysis instrument the paper's methodology relies on
// (§V: "We install TelosB based sniffer nodes to collect all network
// packets and log all control data with time stamps, based on which we
// conduct full analysis on the system performance"). It observes every
// delivered frame, optionally streams a CSV log, and keeps per-type and
// per-source statistics including inter-arrival times.
type Sniffer struct {
	now func() time.Time
	w   io.Writer

	total     int
	byType    map[MsgType]int
	bySource  map[NodeID]int
	lastSeen  map[MsgType]time.Time
	interSum  map[MsgType]float64
	interSumQ map[MsgType]float64
	interN    map[MsgType]int

	start   time.Time
	started bool
	lastAt  time.Time

	writeErr error
}

// NewSniffer builds a sniffer. now supplies timestamps (usually the
// simulation clock); w, if non-nil, receives one CSV row per packet.
func NewSniffer(now func() time.Time, w io.Writer) (*Sniffer, error) {
	if now == nil {
		return nil, fmt.Errorf("wsn: sniffer needs a clock")
	}
	s := &Sniffer{
		now:       now,
		w:         w,
		byType:    make(map[MsgType]int),
		bySource:  make(map[NodeID]int),
		lastSeen:  make(map[MsgType]time.Time),
		interSum:  make(map[MsgType]float64),
		interSumQ: make(map[MsgType]float64),
		interN:    make(map[MsgType]int),
	}
	if w != nil {
		if _, err := fmt.Fprintln(w, "time,source,type,zone,seq,value"); err != nil {
			return nil, fmt.Errorf("wsn: sniffer header: %w", err)
		}
	}
	return s, nil
}

// Attach registers the sniffer on a network.
func (s *Sniffer) Attach(n *Network) {
	n.AddSniffer(s.observe)
}

// observe records one delivered frame.
func (s *Sniffer) observe(m Message) {
	at := s.now()
	if !s.started {
		s.start = at
		s.started = true
	}
	s.lastAt = at
	s.total++
	s.byType[m.Type]++
	s.bySource[m.Source]++
	if last, ok := s.lastSeen[m.Type]; ok {
		d := at.Sub(last).Seconds()
		s.interSum[m.Type] += d
		s.interSumQ[m.Type] += d * d
		s.interN[m.Type]++
	}
	s.lastSeen[m.Type] = at

	if s.w != nil && s.writeErr == nil {
		_, s.writeErr = fmt.Fprintf(s.w, "%s,%s,%s,%d,%d,%.4f\n",
			at.Format(time.RFC3339), m.Source, m.Type, m.Zone, m.Seq, m.Value)
	}
}

// Err returns the first log-write error, if any.
func (s *Sniffer) Err() error { return s.writeErr }

// Total returns the number of observed packets.
//
//bzlint:allow testonly core.TestAttachSniffer checks the log against it
func (s *Sniffer) Total() int { return s.total }

// TypeCount returns the packets seen of one type.
//
//bzlint:allow testonly core.TestAttachSniffer counts temperature packets with it
func (s *Sniffer) TypeCount(t MsgType) int { return s.byType[t] }

// InterArrival returns the mean and standard deviation (seconds) of the
// gaps between consecutive packets of one type, and how many gaps were
// observed. The mean inter-arrival of an adaptive sensor's type is the
// observable version of its T_snd.
func (s *Sniffer) InterArrival(t MsgType) (mean, std float64, n int) {
	n = s.interN[t]
	if n == 0 {
		return 0, 0, 0
	}
	mean = s.interSum[t] / float64(n)
	variance := s.interSumQ[t]/float64(n) - mean*mean
	if variance > 0 {
		std = math.Sqrt(variance)
	}
	return mean, std, n
}

// Rate returns the overall observed packet rate in packets/second.
func (s *Sniffer) Rate() float64 {
	if !s.started {
		return 0
	}
	elapsed := s.lastAt.Sub(s.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(s.total) / elapsed
}

// Summary renders the per-type table.
func (s *Sniffer) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sniffer: %d packets, %.2f pkt/s overall\n", s.total, s.Rate())
	types := make([]MsgType, 0, len(s.byType))
	//bzlint:ordered keys are collected and sorted before any ordered use
	for t := range s.byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	b.WriteString("  type          packets  mean gap(s)  std(s)\n")
	for _, t := range types {
		mean, std, _ := s.InterArrival(t)
		fmt.Fprintf(&b, "  %-12s  %7d      %7.1f  %6.1f\n", t, s.byType[t], mean, std)
	}
	return b.String()
}
