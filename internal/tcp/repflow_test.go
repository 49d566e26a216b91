package tcp_test

import (
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
)

func repConfig() tcp.Config {
	cfg := tcp.DefaultConfig()
	cfg.Replicate = &tcp.ReplicateConfig{Cutoff: 100 * 1024}
	return cfg
}

// TestRepFlowWinnerOnlyAccounting pins RepFlow's accounting contract: the
// parent flow reports exactly the winning sub-flow's measurements — bytes
// delivered, data packets, recovery episodes — never the sum over both
// replicas, and the losing replica's sender is aborted.
func TestRepFlowWinnerOnlyAccounting(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.TinyScale())
	ft.SetSelector(routing.ECMP{})

	cfg := repConfig()
	const size = 50_000
	f := tcp.StartFlow(eng, cfg, 1, ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1], size)
	if !f.Replicated() {
		t.Fatal("sub-cutoff flow not replicated")
	}
	subs := f.SubFlows()
	if len(subs) != tcp.ReplicationFactor {
		t.Fatalf("sub-flows = %d, want %d", len(subs), tcp.ReplicationFactor)
	}
	if subs[0].ID != 1 || subs[1].ID != tcp.ReplicaID(1) {
		t.Fatalf("sub-flow IDs = %d, %d; want %d, %d", subs[0].ID, subs[1].ID, 1, tcp.ReplicaID(1))
	}
	// The replica must take an independent ECMP draw: a distinct flow ID
	// maps to a distinct source port, so the fabric hashes it separately.
	if subs[0].Sender() == subs[1].Sender() {
		t.Fatal("replicas share a sender")
	}

	eng.Run(eng.Now() + 100*sim.Millisecond)
	if !f.Done() {
		t.Fatal("replicated flow incomplete")
	}
	w := f.Winner()
	if w == nil {
		t.Fatal("done flow has no winner")
	}

	// Parent observables are the winner's, verbatim.
	if f.Sender() != w.Sender() || f.Receiver() != w.Receiver() {
		t.Fatal("parent endpoints are not the winner's")
	}
	if f.RecvDone != w.RecvDone {
		t.Fatalf("parent RecvDone %v != winner's %v", f.RecvDone, w.RecvDone)
	}
	if f.DataPackets() != w.DataPackets() {
		t.Fatalf("parent data packets %d != winner's %d", f.DataPackets(), w.DataPackets())
	}
	if f.Recovery() != w.Recovery() {
		t.Fatalf("parent recovery %+v != winner's %+v", f.Recovery(), w.Recovery())
	}
	// One sub-flow's worth of segments, not two: replication must not
	// double-count delivered bytes. (Allow loss-free retransmit slack of a
	// couple of segments, but nowhere near 2x.)
	segs := int64((size + tcp.MSS - 1) / tcp.MSS)
	if f.DataPackets() < segs || f.DataPackets() > segs+segs/2 {
		t.Fatalf("parent data packets %d, want about %d (one replica's worth)", f.DataPackets(), segs)
	}

	// The loser is torn down, not raced to completion.
	for _, sub := range subs {
		if sub == w {
			if sub.Sender().Aborted() {
				t.Fatal("winner's sender aborted")
			}
			continue
		}
		if !sub.Sender().Aborted() {
			t.Fatal("loser's sender not aborted after the winner finished")
		}
	}
}

// TestRepFlowLoserHandlersReleased checks both replicas' dispatch slots —
// winner and aborted loser alike — are unregistered from the hosts after the
// quiet period, so replication cannot leak handler-table entries.
func TestRepFlowLoserHandlersReleased(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.TinyScale())
	ft.SetSelector(routing.ECMP{})
	src, dst := ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1]

	cfg := repConfig()
	f := tcp.StartFlow(eng, cfg, 1, src, dst, 50_000)
	eng.Run(eng.Now() + 5*sim.Millisecond)
	if !f.Done() {
		t.Fatal("replicated flow incomplete after 5 ms")
	}
	// Two senders at the source, two receivers at the destination.
	if n := src.HandlerCount() + dst.HandlerCount(); n == 0 {
		t.Fatal("no handlers registered while sub-flows are live")
	}
	eng.Run(eng.Now() + 3*tcp.RTOMax)
	if n := src.HandlerCount(); n != 0 {
		t.Errorf("src still holds %d handlers after replica teardown", n)
	}
	if n := dst.HandlerCount(); n != 0 {
		t.Errorf("dst still holds %d handlers after replica teardown", n)
	}
}

// TestRepFlowTeardownChurn is the replicated variant of
// TestFlowTeardownReleasesHandlers: sequential short flows, each spawning two
// sub-flows, must keep host handler counts bounded by live flows and drain to
// zero at the end — the loser's teardown path (abort, quiet period,
// unregister) has to keep up with churn just like normal completion does.
func TestRepFlowTeardownChurn(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.TinyScale())
	ft.SetSelector(routing.ECMP{})
	src, dst := ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1]

	// Flows start RTOMax/5 apart, so about ten of them sit inside one
	// quiet period (2x RTOMax).
	cfg := repConfig()
	const flows, spacing = 50, tcp.RTOMax / 5
	var peak int
	for i := 0; i < flows; i++ {
		f := tcp.StartFlow(eng, cfg, netsim.FlowID(i+1), src, dst, 50_000)
		eng.Run(eng.Now() + spacing)
		if !f.Done() {
			t.Fatalf("flow %d incomplete after %v", i, spacing)
		}
		if n := src.HandlerCount() + dst.HandlerCount(); n > peak {
			peak = n
		}
	}
	// Each live flow holds up to 4 slots (two sub-flows x two endpoints);
	// the peak must track the handful of flows inside a quiet period, far
	// below the total churned.
	if peak >= 2*flows {
		t.Fatalf("handler peak %d not bounded by live flows (churned %d, 2 sub-flows each)", peak, flows)
	}
	eng.Run(eng.Now() + 3*tcp.RTOMax)
	if n := src.HandlerCount() + dst.HandlerCount(); n != 0 {
		t.Errorf("%d handlers leaked after replicated churn", n)
	}
}
