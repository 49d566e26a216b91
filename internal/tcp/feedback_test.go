package tcp

import (
	"testing"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// craftedAck builds an ACK as the receiver would send it.
func craftedAck(f *Flow, ackNo int64, ece bool, tag uint32) *netsim.Packet {
	return &netsim.Packet{
		Flow: f.ID, Src: f.Dst.ID(), Dst: f.Src.ID(),
		Proto: netsim.ProtoTCP, Kind: netsim.KindAck,
		Seq: ackNo, Size: netsim.HeaderBytes, ECT: true,
		ECE: ece, EchoTS: -1, PathTag: tag,
	}
}

// isolatedSender starts a flow whose packets go nowhere, so tests can feed
// the sender hand-crafted ACKs.
func isolatedSender(t *testing.T, cfg Config) (*sim.Engine, *Flow) {
	t.Helper()
	eng := sim.NewEngine()
	blackhole := devNullDevice{}
	src := netsim.NewHost(eng, 0, 10_000_000_000, 0)
	dst := netsim.NewHost(eng, 1, 10_000_000_000, 0)
	src.NIC.Link = netsim.Link{To: blackhole}
	dst.NIC.Link = netsim.Link{To: blackhole}
	f := StartFlow(eng, cfg, 1, src, dst, 1_000_000)
	eng.Run(10 * sim.Microsecond) // let the initial window leave
	return eng, f
}

type devNullDevice struct{}

func (devNullDevice) ID() netsim.NodeID           { return 99 }
func (devNullDevice) Receive(*netsim.Packet, int) {}

func TestStaleFeedbackFiltered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowBender = &core.Config{} // deterministic, tag starts at 0
	eng, f := isolatedSender(t, cfg)
	s := f.Sender()

	// ACKs echoing a stale tag must not be fed to FlowBender: the epoch
	// closes with zero observations and is not counted.
	s.Deliver(craftedAck(f, 1460, true, 7)) // current tag is 0
	eng.Run(eng.Now() + sim.Microsecond)
	if got := f.FlowBenderStats().Epochs; got != 0 {
		t.Fatalf("stale-tag ACK counted: epochs = %d", got)
	}

	// Matching-tag ACKs are counted (and an all-marked epoch reroutes).
	// The epoch closes once the cumulative ACK passes the sndNxt recorded
	// at the previous epoch boundary (the initial window), so acknowledge
	// past it.
	s.Deliver(craftedAck(f, 20_000, true, s.PathTag()))
	eng.Run(eng.Now() + sim.Microsecond)
	st := f.FlowBenderStats()
	if st.Epochs != 1 {
		t.Fatalf("matching-tag ACK not counted: epochs = %d", st.Epochs)
	}
	if st.Reroutes != 1 {
		t.Fatalf("fully marked epoch should reroute: %+v", st)
	}
}

func TestECNCutProportionalToAlpha(t *testing.T) {
	// With alpha ~ 0 the ECN cut is tiny, not a halving.
	eng, f := isolatedSender(t, DefaultConfig())
	s := f.Sender()
	before := s.cwnd
	s.Deliver(craftedAck(f, 1460, true, 0))
	eng.Run(eng.Now() + sim.Microsecond)
	// The new-ack growth adds <= 2 MSS before the cut applies; alpha after
	// one fully-marked epoch = g = 1/16, and the cut is alpha/2.
	if after := s.cwnd; after < before*0.9 {
		t.Fatalf("DCTCP cut too deep: %v -> %v", before, after)
	}
}
