package wsn

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"bubblezero/internal/energy"
	"bubblezero/internal/sim"
)

var testStart = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)

func newTestNetwork(t *testing.T, cfg Config) (*Network, *sim.Engine) {
	t.Helper()
	e := sim.NewEngine(sim.MustClock(testStart, time.Second), 11)
	n, err := NewNetwork(cfg, e.RNG().Stream("wsn"))
	if err != nil {
		t.Fatal(err)
	}
	return n, e
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{AirtimeS: 0, CCABlindS: 0, LossFloor: 0},
		{AirtimeS: 0.004, CCABlindS: 0.005, LossFloor: 0},
		{AirtimeS: 0.004, CCABlindS: -1, LossFloor: 0},
		{AirtimeS: 0.004, CCABlindS: 0.0005, LossFloor: 1},
		{AirtimeS: 0.004, CCABlindS: 0.0005, LossFloor: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
}

func TestMsgTypeAndPowerClassStrings(t *testing.T) {
	if MsgTemperature.String() != "temperature" {
		t.Errorf("MsgTemperature = %q", MsgTemperature.String())
	}
	if MsgType(999).String() == "" {
		t.Error("unknown type should still render")
	}
	if PowerAC.String() != "ac" || PowerBattery.String() != "battery" {
		t.Error("power class strings wrong")
	}
}

func TestAddNode(t *testing.T) {
	n, _ := newTestNetwork(t, DefaultConfig())
	bt, err := n.AddNode("t1", PowerBattery)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Battery() == nil {
		t.Error("battery node has no battery")
	}
	if bt.Battery().RemainingJ() != energy.TwoAACapacityJ {
		t.Errorf("battery capacity = %v", bt.Battery().RemainingJ())
	}
	ac, err := n.AddNode("c1", PowerAC)
	if err != nil {
		t.Fatal(err)
	}
	if ac.Battery() != nil {
		t.Error("AC node has a battery")
	}
	if _, err := n.AddNode("t1", PowerAC); err == nil {
		t.Error("duplicate node accepted")
	}
	if n.NodeCount() != 2 {
		t.Errorf("NodeCount = %d, want 2", n.NodeCount())
	}
}

func TestBroadcastDeliversToMatchingSubscribersOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossFloor = 0
	n, e := newTestNetwork(t, cfg)
	node, _ := n.AddNode("t1", PowerAC)

	var temps, co2s []float64
	n.Subscribe(func(m Message) { temps = append(temps, m.Value) }, MsgTemperature)
	n.Subscribe(func(m Message) { co2s = append(co2s, m.Value) }, MsgCO2)
	var sniffed int
	n.AddSniffer(func(Message) { sniffed++ })

	e.Register(sim.ComponentFunc{ID: "src", Fn: func(*sim.Env) {
		_ = n.Broadcast(node, Message{Type: MsgTemperature, Zone: 0, Value: 25})
	}})
	e.Register(n)
	if err := e.RunTicks(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if len(temps) != 5 {
		t.Errorf("temperature subscriber got %d messages, want 5", len(temps))
	}
	if len(co2s) != 0 {
		t.Errorf("co2 subscriber got %d messages, want 0", len(co2s))
	}
	if sniffed != 5 {
		t.Errorf("sniffer saw %d, want 5", sniffed)
	}
	if got := n.Stats().Delivered; got != 5 {
		t.Errorf("Delivered = %d, want 5", got)
	}
}

func TestBroadcastSetsSourceAndSeq(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossFloor = 0
	n, e := newTestNetwork(t, cfg)
	node, _ := n.AddNode("t1", PowerAC)
	var msgs []Message
	n.Subscribe(func(m Message) { msgs = append(msgs, m) }, MsgHumidity)
	e.Register(sim.ComponentFunc{ID: "src", Fn: func(*sim.Env) {
		_ = n.Broadcast(node, Message{Type: MsgHumidity, Value: 60})
	}})
	e.Register(n)
	if err := e.RunTicks(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("got %d messages", len(msgs))
	}
	for i, m := range msgs {
		if m.Source != "t1" {
			t.Errorf("msg %d source = %q", i, m.Source)
		}
		if m.Seq != uint32(i+1) {
			t.Errorf("msg %d seq = %d, want %d", i, m.Seq, i+1)
		}
	}
}

func TestBroadcastErrors(t *testing.T) {
	n, _ := newTestNetwork(t, DefaultConfig())
	if err := n.Broadcast(nil, Message{}); err == nil {
		t.Error("nil node accepted")
	}
	ghost := &Node{id: "ghost"}
	if err := n.Broadcast(ghost, Message{}); err == nil {
		t.Error("unregistered node accepted")
	}
}

func TestBroadcastDrainsBatteryAndStopsWhenDepleted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossFloor = 0
	n, _ := newTestNetwork(t, cfg)
	node, _ := n.AddNode("t1", PowerBattery)
	before := node.Battery().RemainingJ()
	if err := n.Broadcast(node, Message{Type: MsgTemperature, Value: 1}); err != nil {
		t.Fatal(err)
	}
	drained := before - node.Battery().RemainingJ()
	if math.Abs(drained-energy.TxEnergyPerPacketJ) > 1e-12 {
		t.Errorf("drained %v J per packet, want %v", drained, energy.TxEnergyPerPacketJ)
	}
	node.Battery().Drain(node.Battery().RemainingJ())
	if err := n.Broadcast(node, Message{Type: MsgTemperature, Value: 1}); err == nil {
		t.Error("depleted node transmitted")
	}
}

// floodCollisions runs nNodes AC devices all transmitting every tick and
// returns cumulative stats.
func floodCollisions(t *testing.T, desync bool, nNodes, ticks int) Stats {
	t.Helper()
	cfg := DefaultConfig()
	cfg.LossFloor = 0
	cfg.Desync = desync
	n, e := newTestNetwork(t, cfg)
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		node, err := n.AddNode(NodeID(rune('a'+i/26))+NodeID(rune('a'+i%26)), PowerAC)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	e.Register(sim.ComponentFunc{ID: "flood", Fn: func(*sim.Env) {
		for _, node := range nodes {
			_ = n.Broadcast(node, Message{Type: MsgTemperature, Value: 1})
		}
	}})
	e.Register(n)
	if err := e.RunTicks(context.Background(), uint64(ticks)); err != nil {
		t.Fatal(err)
	}
	return n.Stats()
}

func TestDesyncReducesCollisions(t *testing.T) {
	random := floodCollisions(t, false, 30, 200)
	desync := floodCollisions(t, true, 30, 200)
	if random.Collided == 0 {
		t.Fatal("random offsets produced zero collisions; contention model inert")
	}
	if desync.Collided >= random.Collided/4 {
		t.Errorf("desync collisions %d vs random %d; expected at least 4x reduction",
			desync.Collided, random.Collided)
	}
	if desync.DeliveryRate() <= random.DeliveryRate() {
		t.Errorf("desync delivery %.4f <= random %.4f",
			desync.DeliveryRate(), random.DeliveryRate())
	}
}

func TestStatsAccounting(t *testing.T) {
	s := floodCollisions(t, false, 10, 100)
	if s.Sent != 1000 {
		t.Errorf("Sent = %d, want 1000", s.Sent)
	}
	if s.Delivered+s.Collided+s.LostRandom != s.Sent {
		t.Errorf("counters don't sum: %+v", s)
	}
	if avg := s.TotalDelayS / float64(s.Delivered); !(avg > 0) {
		t.Errorf("mean delay = %v, want > 0 (airtime floor)", avg)
	}
}

func TestEmptyStats(t *testing.T) {
	var s Stats
	if s.DeliveryRate() != 0 {
		t.Error("empty stats should report zeros")
	}
}

func TestLossFloorLosesSomePackets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossFloor = 0.2
	n, e := newTestNetwork(t, cfg)
	node, _ := n.AddNode("t1", PowerAC)
	e.Register(sim.ComponentFunc{ID: "src", Fn: func(*sim.Env) {
		_ = n.Broadcast(node, Message{Type: MsgTemperature, Value: 1})
	}})
	e.Register(n)
	if err := e.RunTicks(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	rate := float64(s.LostRandom) / float64(s.Sent)
	if rate < 0.15 || rate > 0.25 {
		t.Errorf("random loss rate = %.3f, want ≈0.2", rate)
	}
}

func TestSensorDeviceFixedModeSendsEverySample(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossFloor = 0
	n, e := newTestNetwork(t, cfg)
	node, _ := n.AddNode("t1", PowerBattery)
	dev, err := NewSensorDevice(SensorDeviceConfig{
		Node: node, Network: n, Type: MsgTemperature, Zone: 0,
		Read: func() float64 { return 25 }, Mode: ModeFixed, TsplS: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Register(dev)
	e.Register(n)
	if err := e.RunFor(context.Background(), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if sends := node.seq; sends != 30 {
		t.Errorf("fixed-mode sends = %d over 60 s at 2 s, want 30", sends)
	}
	if got := dev.TsndS(); got != 2 {
		t.Errorf("fixed TsndS = %v, want 2", got)
	}
}

func TestSensorDeviceAdaptiveModeBacksOff(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossFloor = 0
	n, e := newTestNetwork(t, cfg)
	node, _ := n.AddNode("t1", PowerBattery)
	dev, err := NewSensorDevice(SensorDeviceConfig{
		Node: node, Network: n, Type: MsgTemperature, Zone: 0,
		Read: func() float64 { return 25 }, Mode: ModeAdaptive, TsplS: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Register(dev)
	e.Register(n)
	if err := e.RunFor(context.Background(), 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Stable stream: the device must back off to T_snd = 64 s.
	if got := dev.TsndS(); got != 64 {
		t.Errorf("adaptive TsndS = %v, want 64", got)
	}
	fixedSends := 30 * 60 / 2
	if sends := int(node.seq); sends >= fixedSends/10 {
		t.Errorf("adaptive sends = %d, want far fewer than fixed %d", sends, fixedSends)
	}
}

func TestSensorDeviceAdaptiveSavesEnergy(t *testing.T) {
	run := func(mode TxMode) float64 {
		cfg := DefaultConfig()
		cfg.LossFloor = 0
		n, e := newTestNetwork(t, cfg)
		node, _ := n.AddNode("t1", PowerBattery)
		dev, err := NewSensorDevice(SensorDeviceConfig{
			Node: node, Network: n, Type: MsgTemperature, Zone: 0,
			Read: func() float64 { return 25 }, Mode: mode, TsplS: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Register(dev)
		e.Register(n)
		if err := e.RunFor(context.Background(), time.Hour); err != nil {
			t.Fatal(err)
		}
		return node.Battery().UsedJ()
	}
	fixed := run(ModeFixed)
	adaptive := run(ModeAdaptive)
	if adaptive >= fixed/2 {
		t.Errorf("adaptive used %v J vs fixed %v J; want large saving", adaptive, fixed)
	}
}

func TestSensorDeviceValidation(t *testing.T) {
	n, _ := newTestNetwork(t, DefaultConfig())
	node, _ := n.AddNode("t1", PowerBattery)
	cases := []SensorDeviceConfig{
		{Node: nil, Network: n, Read: func() float64 { return 0 }, Mode: ModeFixed, TsplS: 2},
		{Node: node, Network: nil, Read: func() float64 { return 0 }, Mode: ModeFixed, TsplS: 2},
		{Node: node, Network: n, Read: nil, Mode: ModeFixed, TsplS: 2},
		{Node: node, Network: n, Read: func() float64 { return 0 }, Mode: ModeFixed, TsplS: 0},
		{Node: node, Network: n, Read: func() float64 { return 0 }, Mode: TxMode(99), TsplS: 2},
	}
	for i, c := range cases {
		if _, err := NewSensorDevice(c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSensorDeviceStopsWhenBatteryDies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossFloor = 0
	n, e := newTestNetwork(t, cfg)
	node, _ := n.AddNode("t1", PowerBattery)
	dev, _ := NewSensorDevice(SensorDeviceConfig{
		Node: node, Network: n, Type: MsgTemperature, Zone: 0,
		Read: func() float64 { return 25 }, Mode: ModeFixed, TsplS: 2,
	})
	node.Battery().Drain(node.Battery().RemainingJ())
	e.Register(dev)
	e.Register(n)
	if err := e.RunFor(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	if sends := node.seq; sends != 0 {
		t.Errorf("dead device sent %d packets", sends)
	}
}

func TestPeriodicBroadcasterCadence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossFloor = 0
	n, e := newTestNetwork(t, cfg)
	node, _ := n.AddNode("c1", PowerAC)
	pb, err := NewPeriodicBroadcaster(node, n, MsgSupplyTemp, -1, 5, func() float64 { return 18 })
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	n.Subscribe(func(m Message) { got = append(got, m.Value) }, MsgSupplyTemp)
	e.Register(pb)
	e.Register(n)
	if err := e.RunFor(context.Background(), 50*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Errorf("periodic broadcasts = %d over 50 s at 5 s, want 10", len(got))
	}
}

func TestPeriodicBroadcasterValidation(t *testing.T) {
	n, _ := newTestNetwork(t, DefaultConfig())
	node, _ := n.AddNode("c1", PowerAC)
	if _, err := NewPeriodicBroadcaster(nil, n, MsgSupplyTemp, -1, 5, func() float64 { return 0 }); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := NewPeriodicBroadcaster(node, n, MsgSupplyTemp, -1, 0, func() float64 { return 0 }); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewPeriodicBroadcaster(node, n, MsgSupplyTemp, -1, 5, nil); err == nil {
		t.Error("nil read accepted")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	e := sim.NewEngine(sim.MustClock(testStart, time.Second), 1)
	if _, err := NewNetwork(Config{}, e.RNG().Stream("x")); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewNetwork(DefaultConfig(), nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestSnifferRequiresClock(t *testing.T) {
	if _, err := NewSniffer(nil, nil); err == nil {
		t.Error("nil clock accepted")
	}
}

func TestSnifferCountsAndLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossFloor = 0
	n, e := newTestNetwork(t, cfg)
	node, _ := n.AddNode("t1", PowerAC)
	var log strings.Builder
	sn, err := NewSniffer(e.Clock().Now, &log)
	if err != nil {
		t.Fatal(err)
	}
	sn.Attach(n)
	e.Register(sim.ComponentFunc{ID: "src", Fn: func(*sim.Env) {
		if e.Clock().Tick()%5 == 0 {
			_ = n.Broadcast(node, Message{Type: MsgTemperature, Zone: 1, Value: 25})
		}
	}})
	e.Register(n)
	if err := e.RunTicks(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if sn.Err() != nil {
		t.Fatalf("log error: %v", sn.Err())
	}
	if sn.Total() != 10 {
		t.Errorf("Total = %d, want 10", sn.Total())
	}
	if sn.TypeCount(MsgTemperature) != 10 || sn.TypeCount(MsgCO2) != 0 {
		t.Error("type counts wrong")
	}
	if sn.bySource["t1"] != 10 {
		t.Errorf("source count = %d", sn.bySource["t1"])
	}
	mean, std, gaps := sn.InterArrival(MsgTemperature)
	if gaps != 9 {
		t.Errorf("gaps = %d, want 9", gaps)
	}
	if math.Abs(mean-5) > 1e-9 || std > 1e-9 {
		t.Errorf("inter-arrival = %v ± %v, want exactly 5 ± 0", mean, std)
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 11 { // header + 10 rows
		t.Errorf("log has %d lines, want 11", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time,source,type") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "t1,temperature,1,1,25.0000") {
		t.Errorf("row = %q", lines[1])
	}
	if sn.Rate() <= 0 {
		t.Error("rate not positive")
	}
	if s := sn.Summary(); !strings.Contains(s, "temperature") {
		t.Errorf("summary malformed: %s", s)
	}
}

func TestSnifferNoWriterIsFine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossFloor = 0
	n, e := newTestNetwork(t, cfg)
	node, _ := n.AddNode("t1", PowerAC)
	sn, err := NewSniffer(e.Clock().Now, nil)
	if err != nil {
		t.Fatal(err)
	}
	sn.Attach(n)
	e.Register(sim.ComponentFunc{ID: "src", Fn: func(*sim.Env) {
		_ = n.Broadcast(node, Message{Type: MsgHumidity, Value: 60})
	}})
	e.Register(n)
	if err := e.RunTicks(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if sn.Total() != 3 {
		t.Errorf("Total = %d", sn.Total())
	}
}

func TestSnifferEmptyStats(t *testing.T) {
	e := sim.NewEngine(sim.MustClock(testStart, time.Second), 1)
	sn, err := NewSniffer(e.Clock().Now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Rate() != 0 || sn.Total() != 0 {
		t.Error("fresh sniffer should be empty")
	}
	if m, s, n := sn.InterArrival(MsgTemperature); m != 0 || s != 0 || n != 0 {
		t.Error("fresh inter-arrival should be zero")
	}
}
