package tcp_test

import (
	"testing"

	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
)

// TestRecoveryStatsTracksOutage cuts the single host uplink mid-transfer and
// checks the time-to-recover metric brackets the dark period: the episode
// opens at the first RTO after the cut and closes at the first ACK after the
// restore.
func TestRecoveryStatsTracksOutage(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.TinyScale())
	ft.SetSelector(routing.ECMP{})

	const (
		failAt    = 2 * sim.Millisecond
		restoreAt = 52 * sim.Millisecond
	)
	f := tcp.StartFlow(eng, tcp.DefaultConfig(), 1, ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1], 10_000_000)
	// Cut the source host's only uplink: every path is dark, so the flow
	// must stall until the restore no matter how it is routed.
	up := ft.HostLinks[0]
	eng.At(failAt, func() { up.AtoB.SetLinkDown(true); up.BtoA.SetLinkDown(true) })
	eng.At(restoreAt, func() { up.AtoB.SetLinkDown(false); up.BtoA.SetLinkDown(false) })
	eng.Run(2 * sim.Second)

	if !f.Done() {
		t.Fatalf("flow did not complete after restore (timeouts=%d)", f.Sender().Timeouts)
	}
	rec := f.Recovery()
	if rec.Count == 0 {
		t.Fatal("no recovery episode recorded despite RTOs")
	}
	dark := restoreAt - failAt
	// The episode starts at the first RTO after the cut and ends at the
	// first ACK after restore. Exponential RTO backoff means the closing
	// retransmission can land up to roughly one doubled backoff interval
	// after the restore, so the episode may exceed the dark period — but
	// never by more than ~2x, and it must cover a substantial part of it.
	if rec.Max < dark/4 {
		t.Errorf("recovery %v implausibly short for a %v outage", rec.Max, dark)
	}
	if rec.Max > 3*dark {
		t.Errorf("recovery %v implausibly long for a %v outage", rec.Max, dark)
	}
	if mean := rec.Total / sim.Time(rec.Count); mean > rec.Max || mean <= 0 {
		t.Errorf("mean %v inconsistent with max %v", mean, rec.Max)
	}
	if f.Sender().InOutage() {
		t.Error("flow completed but still marked in-outage")
	}
}

// TestRecoveryStatsZeroWithoutTimeouts: a clean transfer records no episode.
func TestRecoveryStatsZeroWithoutTimeouts(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.TinyScale())
	ft.SetSelector(routing.ECMP{})
	f := tcp.StartFlow(eng, tcp.DefaultConfig(), 1, ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1], 1_000_000)
	eng.Run(1 * sim.Second)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if rec := f.Recovery(); rec.Count != 0 || rec.Total != 0 || rec.Max != 0 {
		t.Fatalf("clean flow recorded recovery episodes: %+v", rec)
	}
}
