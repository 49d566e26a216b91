package routing

import (
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// FuzzFlowletGap drives the flowlet idle-gap detector — both the fixed-gap
// Flowlet selector and FlowDyn's dynamic threshold update — with an
// arbitrary schedule of packet arrivals, time advances, and queue load
// changes, and checks the two safety invariants the schemes rest on:
//
//   - no table leak: the flowlet table never holds more entries than
//     distinct flows offered, and after every selection no entry has idled
//     past the retention horizon, so flow churn cannot grow state without
//     bound;
//   - reordering only across safe gaps: a flow's egress port may change
//     only when its idle gap reached the switching threshold in force at
//     that instant (the fixed Gap, or FlowDyn's per-port drain estimate).
//
// Each op is three bytes: flow index, time advance, and a queue load
// adjustment that feeds FlowDyn's drain-time EWMA.
func FuzzFlowletGap(f *testing.F) {
	// Short gaps, one flow: constant redraw pressure.
	f.Add(false, uint16(10), []byte{0, 1, 200, 0, 200, 200, 0, 1, 200, 0, 255, 200})
	// Classic gap with a mixed flow population and load churn.
	f.Add(false, uint16(200), []byte{1, 5, 10, 2, 5, 70, 1, 80, 20, 3, 0, 30, 1, 200, 90, 2, 255, 0})
	// Gap zero: every packet opens a new flowlet (threshold 0 is always met).
	f.Add(false, uint16(0), []byte{4, 0, 0, 4, 0, 0, 4, 1, 0})
	// FlowDyn with queue buildup and drains across the port set.
	f.Add(true, uint16(0), []byte{0, 2, 1, 0, 2, 2, 1, 2, 3, 0, 50, 65, 0, 2, 4, 1, 255, 80, 0, 255, 5})
	f.Fuzz(func(t *testing.T, dyn bool, gapUs uint16, ops []byte) {
		const nPorts = 8
		const nFlows = 16
		eng := sim.NewEngine()
		sw := netsim.NewSwitch(eng, 1, nPorts, 10_000_000_000, netsim.SwitchConfig{})
		eligible := make([]int32, nPorts)
		for i := range eligible {
			eligible[i] = int32(i)
		}

		var sel netsim.Selector
		var fl *Flowlet
		retention := retentionOf(sim.Time(gapUs) * sim.Microsecond)
		if dyn {
			sel = FlowDyn{}
			retention = retentionOf(dynMaxGap)
		} else {
			fl = &Flowlet{Gap: sim.Time(gapUs) * sim.Microsecond}
			sel = fl
		}

		pkts := make([]*netsim.Packet, nFlows)
		for i := range pkts {
			pkts[i] = &netsim.Packet{
				Src: netsim.NodeID(i), Dst: netsim.NodeID(100 + i%3),
				SrcPort: uint16(1000 + i), DstPort: 80, Proto: netsim.ProtoTCP,
			}
		}
		lastPort := make(map[int]int32)
		queued := make([][]*netsim.Packet, nPorts)

		var now sim.Time
		for i := 0; i+2 < len(ops); i += 3 {
			fi := int(ops[i]) % nFlows
			now += sim.Time(ops[i+1]) * 5 * sim.Microsecond
			eng.Run(now)
			switch op := ops[i+2]; {
			case op < 64: // park an MTU on a port: lengthens the drain estimate
				p := int(op) % nPorts
				pk := &netsim.Packet{Size: 1500}
				sw.Ports[p].Q.Push(pk)
				queued[p] = append(queued[p], pk)
			case op < 96: // drain everything this harness parked on a port
				p := int(op) % nPorts
				for range queued[p] {
					sw.Ports[p].Q.Pop()
				}
				queued[p] = queued[p][:0]
			}

			// Capture the threshold in force for this packet before Select
			// mutates the entry; an evicted-and-recreated entry is a fresh
			// flowlet and exempt from the reorder check (its idle gap already
			// exceeded retention >= the gap).
			pkt := pkts[fi]
			st := flowletStateOf(sw, dyn)
			var threshold, idle sim.Time
			tracked := false
			if e := st.table[keyOf(pkt)]; e != nil {
				tracked = true
				idle = now - e.last
				if dyn {
					threshold = gapFor(sw, st, e.port)
				} else {
					threshold = fl.Gap
				}
			}

			got := sel.Select(sw, pkt, eligible)
			if got < 0 || int(got) >= nPorts {
				t.Fatalf("selected port %d out of range", got)
			}
			if prev, ok := lastPort[fi]; ok && tracked && got != prev && idle < threshold {
				t.Fatalf("flow %d rerouted %d->%d after idle %v < threshold %v (dyn=%v)",
					fi, prev, got, idle, threshold, dyn)
			}
			lastPort[fi] = got

			if n := len(st.table); n > nFlows {
				t.Fatalf("table holds %d entries for %d flows", n, nFlows)
			}
			if retention >= 0 && st.tail != nil && now-st.tail.last > retention {
				t.Fatalf("tail entry idle %v past retention %v", now-st.tail.last, retention)
			}
		}
	})
}
