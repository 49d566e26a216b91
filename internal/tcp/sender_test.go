package tcp

import (
	"testing"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// tamper sits between the two hosts and lets tests drop or inspect packets
// in either direction.
type tamper struct {
	eng  *sim.Engine
	a, b *netsim.Host
	// drop returns true to discard the packet.
	drop func(pkt *netsim.Packet) bool
	// seen observes every packet that passes.
	seen func(pkt *netsim.Packet)
}

func (t *tamper) ID() netsim.NodeID { return 99 }

func (t *tamper) Receive(pkt *netsim.Packet, _ int) {
	if t.seen != nil {
		t.seen(pkt)
	}
	if t.drop != nil && t.drop(pkt) {
		return
	}
	if pkt.Dst == t.a.ID() {
		t.a.Receive(pkt, 0)
	} else {
		t.b.Receive(pkt, 0)
	}
}

// pipe builds hostA <-> tamper <-> hostB at 10 Gbps with no host delay.
func pipe(eng *sim.Engine) (*netsim.Host, *netsim.Host, *tamper) {
	const rate = 10_000_000_000
	a := netsim.NewHost(eng, 0, rate, 0)
	b := netsim.NewHost(eng, 1, rate, 0)
	tm := &tamper{eng: eng, a: a, b: b}
	a.NIC.Link = netsim.Link{To: tm}
	b.NIC.Link = netsim.Link{To: tm}
	return a, b, tm
}

func TestBasicTransferAndCompletion(t *testing.T) {
	eng := sim.NewEngine()
	a, b, _ := pipe(eng)
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 100_000)
	eng.Run(sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if f.SendDone < f.RecvDone {
		t.Fatal("sender finished before receiver had the data")
	}
	if f.Sender().Retransmits != 0 || f.Sender().Timeouts != 0 {
		t.Fatal("retransmissions on a clean pipe")
	}
	if f.Receiver().AcksSent != f.Receiver().DataPackets {
		t.Fatal("per-packet ACKing violated")
	}
}

func TestSingleLossFastRetransmit(t *testing.T) {
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	dropped := false
	tm.drop = func(pkt *netsim.Packet) bool {
		if pkt.Kind == netsim.KindData && pkt.Seq == 14600 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 300_000)
	eng.Run(sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete after a single loss")
	}
	s := f.Sender()
	if s.FastRetx != 1 {
		t.Fatalf("FastRetx = %d, want 1", s.FastRetx)
	}
	if s.Timeouts != 0 {
		t.Fatalf("single mid-window loss should not RTO (timeouts=%d)", s.Timeouts)
	}
	if s.Retransmits != 1 {
		t.Fatalf("SACK recovery should resend exactly the hole: retx=%d", s.Retransmits)
	}
	if s.SpuriousUndo != 0 {
		t.Fatal("genuine loss must not be undone")
	}
}

func TestBurstLossRecoversViaSACK(t *testing.T) {
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	lost := map[int64]bool{14600: true, 16060: true, 20440: true}
	tm.drop = func(pkt *netsim.Packet) bool {
		if pkt.Kind == netsim.KindData && lost[pkt.Seq] && !pkt.Retx {
			delete(lost, pkt.Seq)
			return true
		}
		return false
	}
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 300_000)
	eng.Run(sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete after burst loss")
	}
	if f.Sender().Retransmits != 3 {
		t.Fatalf("retx = %d, want exactly the 3 holes", f.Sender().Retransmits)
	}
}

func TestTailLossTimesOut(t *testing.T) {
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	var lastData int64 = -1
	tm.drop = func(pkt *netsim.Packet) bool {
		// Drop the final segment's first transmission: no dupacks follow,
		// so only the RTO can recover it.
		if pkt.Kind == netsim.KindData && !pkt.Retx && pkt.Seq+int64(pkt.Payload) == 100_000 {
			lastData = pkt.Seq
			return true
		}
		return false
	}
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 100_000)
	eng.Run(sim.Second)
	if lastData < 0 {
		t.Fatal("test never saw the last segment")
	}
	if !f.Done() {
		t.Fatal("flow incomplete after tail loss")
	}
	if f.Sender().Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", f.Sender().Timeouts)
	}
	// RTO floor: completion must be >= 10 ms.
	if f.FCT() < 10*sim.Millisecond {
		t.Fatalf("FCT %v below RTOmin", f.FCT())
	}
}

func TestECNMarkCutsWindowOncePerRTT(t *testing.T) {
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	markFrom := int64(50_000)
	tm.seen = func(pkt *netsim.Packet) {
		if pkt.Kind == netsim.KindData && pkt.Seq >= markFrom && pkt.Seq < markFrom+30_000 {
			pkt.CE = true
		}
	}
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 300_000)
	eng.Run(sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if f.Receiver().MarkedData == 0 {
		t.Fatal("no marks observed")
	}
	if f.Sender().alpha == 0 {
		t.Fatal("DCTCP alpha never updated despite marks")
	}
}

func TestDCTCPAlphaConvergesToMarkRate(t *testing.T) {
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	// Mark every packet: alpha must converge toward 1.
	tm.seen = func(pkt *netsim.Packet) {
		if pkt.Kind == netsim.KindData {
			pkt.CE = true
		}
	}
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 2_000_000)
	eng.Run(10 * sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if got := f.Sender().alpha; got < 0.8 {
		t.Fatalf("alpha = %v after universal marking, want near 1", got)
	}
}

func TestFlowBenderTimeoutChangesTag(t *testing.T) {
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	cfg := DefaultConfig()
	cfg.FlowBender = &core.Config{} // deterministic tag cycling
	blackhole := true
	tm.drop = func(pkt *netsim.Packet) bool {
		// Kill everything until the sender times out once.
		return blackhole
	}
	f := StartFlow(eng, cfg, 1, a, b, 50_000)
	eng.Run(15 * sim.Millisecond) // one RTOmin
	if f.Sender().Timeouts == 0 {
		t.Fatal("no timeout under blackhole")
	}
	if got := f.FlowBenderStats().TimeoutReroutes; got == 0 {
		t.Fatal("timeout did not reroute")
	}
	blackhole = false
	eng.Run(5 * sim.Second)
	if !f.Done() {
		t.Fatal("flow did not recover after blackhole lifted")
	}
}

func TestReorderingDoesNotRetransmit(t *testing.T) {
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	// Delay one packet by 100 us: it arrives ~70 positions late at 10 Gbps.
	delayed := false
	tm.drop = func(pkt *netsim.Packet) bool {
		if pkt.Kind == netsim.KindData && pkt.Seq == 29200 && !delayed {
			delayed = true
			cp := *pkt
			tm.eng.Schedule(100*sim.Microsecond, func() { tm.b.Receive(&cp, 0) })
			return true // swallow the original; the copy is the "late" one
		}
		return false
	}
	cfg := DefaultConfig()
	f := StartFlow(eng, cfg, 1, a, b, 1_000_000)
	eng.Run(sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if f.OutOfOrder() == 0 {
		t.Fatal("reordering not observed by receiver")
	}
	// With DSACK undo and adaptive dupthresh the disturbance must not leave
	// lasting damage: at most one spurious episode, fully undone.
	s := f.Sender()
	if s.FastRetx > 1 {
		t.Fatalf("FastRetx = %d for a single reordered packet", s.FastRetx)
	}
	if s.FastRetx == 1 && s.SpuriousUndo != 1 {
		t.Fatalf("spurious retransmit not undone (undo=%d)", s.SpuriousUndo)
	}
}

func TestAdaptiveDupThreshRaises(t *testing.T) {
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	delayCount, nData := 0, 0
	tm.drop = func(pkt *netsim.Packet) bool {
		if pkt.Kind == netsim.KindData && !pkt.Retx {
			nData++
			if nData%50 == 0 && delayCount < 5 {
				delayCount++
				cp := *pkt
				tm.eng.Schedule(50*sim.Microsecond, func() { tm.b.Receive(&cp, 0) })
				return true
			}
		}
		return false
	}
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 1_000_000)
	eng.Run(sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if got := f.Sender().dynDupThresh; got <= 3 {
		t.Fatalf("dynDupThresh = %d, want raised above 3 after repeated reordering", got)
	}
}

func TestDisableFastRetxNeverFastRetransmits(t *testing.T) {
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	dropped := false
	tm.drop = func(pkt *netsim.Packet) bool {
		if pkt.Kind == netsim.KindData && pkt.Seq == 14600 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	cfg := DefaultConfig()
	cfg.DisableFastRetx = true // DeTail's stack
	f := StartFlow(eng, cfg, 1, a, b, 200_000)
	eng.Run(sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if f.Sender().FastRetx != 0 {
		t.Fatal("fast retransmit fired despite DisableFastRetx")
	}
	if f.Sender().Timeouts == 0 {
		t.Fatal("loss must be recovered by RTO when fast retransmit is off")
	}
}

func TestMaxCwndBound(t *testing.T) {
	eng := sim.NewEngine()
	a, b, _ := pipe(eng)
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 5_000_000)
	var maxSeen float64
	var tick func()
	tick = func() {
		if !f.Done() {
			if c := f.Sender().cwnd; c > maxSeen {
				maxSeen = c
			}
			eng.Schedule(100*sim.Microsecond, tick)
		}
	}
	eng.Schedule(0, tick)
	eng.Run(30 * sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if maxSeen > MaxCwnd {
		t.Fatalf("cwnd %v exceeded MaxCwnd %d", maxSeen, MaxCwnd)
	}
	if maxSeen < MaxCwnd/2 {
		t.Fatalf("cwnd peaked at %v, below MaxCwnd/2: the cap was never tested", maxSeen)
	}
}

func TestRTTEstimation(t *testing.T) {
	eng := sim.NewEngine()
	const rate = 10_000_000_000
	a := netsim.NewHost(eng, 0, rate, 10*sim.Microsecond)
	b := netsim.NewHost(eng, 1, rate, 10*sim.Microsecond)
	tm := &tamper{eng: eng, a: a, b: b}
	a.NIC.Link = netsim.Link{To: tm, Delay: 5 * sim.Microsecond}
	b.NIC.Link = netsim.Link{To: tm, Delay: 5 * sim.Microsecond}
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 500_000)
	eng.Run(sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	srtt := f.Sender().srtt
	// Baseline RTT = 2*(10+10+5) us = 50 us plus serialization/queueing.
	if srtt < 50*sim.Microsecond || srtt > 2*sim.Millisecond {
		t.Fatalf("SRTT = %v, implausible", srtt)
	}
	if got := f.Sender().rto; got < 10*sim.Millisecond {
		t.Fatalf("RTO %v below the 10 ms floor", got)
	}
}

func TestFlowBytesConservation(t *testing.T) {
	// Every byte is delivered exactly once to the application even under
	// random loss.
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	rng := sim.NewRNG(123)
	tm.drop = func(pkt *netsim.Packet) bool {
		return pkt.Kind == netsim.KindData && rng.Float64() < 0.02
	}
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 2_000_000)
	eng.Run(60 * sim.Second)
	if !f.Done() {
		t.Fatalf("flow incomplete under 2%% loss: timeouts=%d", f.Sender().Timeouts)
	}
}

func TestSubMSSFlow(t *testing.T) {
	// A flow smaller than one segment completes in a single packet.
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	var dataPkts int
	tm.seen = func(pkt *netsim.Packet) {
		if pkt.Kind == netsim.KindData {
			dataPkts++
			if pkt.Payload != 700 {
				t.Errorf("payload = %d, want 700", pkt.Payload)
			}
		}
	}
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 700)
	eng.Run(sim.Second)
	if !f.Done() || dataPkts != 1 {
		t.Fatalf("done=%v dataPkts=%d", f.Done(), dataPkts)
	}
}

func TestNonAlignedLastSegment(t *testing.T) {
	// 10000 bytes = 6 full segments + 1240-byte tail.
	eng := sim.NewEngine()
	a, b, tm := pipe(eng)
	var sizes []int
	tm.seen = func(pkt *netsim.Packet) {
		if pkt.Kind == netsim.KindData {
			sizes = append(sizes, pkt.Payload)
		}
	}
	f := StartFlow(eng, DefaultConfig(), 1, a, b, 10_000)
	eng.Run(sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 10_000 {
		t.Fatalf("bytes on wire = %d", total)
	}
	if last := sizes[len(sizes)-1]; last != 10_000%1460 {
		t.Fatalf("tail segment = %d", last)
	}
}
