package topo

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/udp"
)

// fabricWalker compares two fabrics field by field, through every pointer,
// by rules that go by a field's kind: numbers, bools and strings by value,
// funcs by nil-ness, slices by length and content (capacity is free, but
// what lies beyond the length must be zero: a kept array may not keep a
// packet), interfaces by dynamic type and then content, pointers as a
// one-to-one map between the two fabrics' objects — entered only for netsim's
// and topo's own types, so an engine is compared as an identity, not walked.
// A kind without a rule is an error, so a map or a channel added to a device
// fails here until somebody says what a reset does to it.
//
// Three things are compared by name instead. PacketPool.free is the packets
// a used fabric has to give: not compared. Switch.selGen and selCache are a
// generation and the slots stamped with it: what must agree is that no slot
// is valid, not the number. Switch.selScratch is a stateful selector's table,
// kept for its memory and re-initialised by the next selector that stores
// it: what must agree is that it holds no live entry, i.e. that no selector
// owns it (selOwned, compared as a bool).
type fabricWalker struct {
	fwd, rev map[uintptr]uintptr
	entered  map[string]int // pointer types entered, by name
	diffs    []string
}

func newFabricWalker() *fabricWalker {
	return &fabricWalker{fwd: map[uintptr]uintptr{}, rev: map[uintptr]uintptr{}, entered: map[string]int{}}
}

func (w *fabricWalker) diff(path, format string, args ...any) {
	if len(w.diffs) < 20 {
		w.diffs = append(w.diffs, path+": "+fmt.Sprintf(format, args...))
	}
}

func (w *fabricWalker) walk(path string, a, b reflect.Value) {
	if a.Type() != b.Type() {
		w.diff(path, "type %v against %v", a.Type(), b.Type())
		return
	}
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.diff(path, "%v against %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.diff(path, "%d against %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			w.diff(path, "%d against %d", a.Uint(), b.Uint())
		}
	case reflect.Float64:
		if a.Float() != b.Float() {
			w.diff(path, "%v against %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.diff(path, "%q against %q", a.String(), b.String())
		}
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			w.diff(path, "func nil %v against nil %v", a.IsNil(), b.IsNil())
		}
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.diff(path, "interface nil %v against nil %v", a.IsNil(), b.IsNil())
			}
			return
		}
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Pointer:
		w.pointer(path, a, b)
	case reflect.Slice:
		if a.Len() != b.Len() {
			w.diff(path, "length %d against %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
		for side, v := range []reflect.Value{a, b} {
			if !zeroBeyondLen(v) {
				w.diff(path, "side %d keeps something beyond its length %d (capacity %d)", side, v.Len(), v.Cap())
			}
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Name() + "." + a.Type().Field(i).Name
			switch name {
			case "PacketPool.free":
			case "Switch.selGen":
			case "Switch.selScratch":
				for side, v := range []reflect.Value{a, b} {
					if v.FieldByName("selOwned").Bool() && !v.FieldByName("selScratch").IsNil() {
						w.diff(path+"."+name, "side %d has selector scratch its selector owns", side)
					}
				}
			case "Switch.selCache":
				for side, v := range []reflect.Value{a, b} {
					if n := validMemoSlots(v); n != 0 {
						w.diff(path+"."+name, "side %d has %d valid selector-memo slots", side, n)
					}
				}
			default:
				w.walk(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
			}
		}
	default:
		w.diff(path, "no rule for a field of kind %v (%v)", a.Kind(), a.Type())
	}
}

// zeroBeyondLen reports whether a slice's spare capacity holds zero values.
func zeroBeyondLen(s reflect.Value) bool {
	full := s.Slice(0, s.Cap())
	for i := s.Len(); i < s.Cap(); i++ {
		if !full.Index(i).IsZero() {
			return false
		}
	}
	return true
}

// validMemoSlots counts the selector-memo slots of a Switch value that its
// current generation would serve.
func validMemoSlots(sw reflect.Value) int {
	gen := sw.FieldByName("selGen").Uint()
	slots, n := sw.FieldByName("selCache"), 0
	for i := 0; i < slots.Len(); i++ {
		if slots.Index(i).FieldByName("gen").Uint() == gen {
			n++
		}
	}
	return n
}

func (w *fabricWalker) pointer(path string, a, b reflect.Value) {
	if a.IsNil() || b.IsNil() {
		if a.IsNil() != b.IsNil() {
			w.diff(path, "pointer nil %v against nil %v", a.IsNil(), b.IsNil())
		}
		return
	}
	pa, pb := a.Pointer(), b.Pointer()
	if to, ok := w.fwd[pa]; ok {
		if to != pb {
			w.diff(path, "points at another object than the same pointer did before")
		}
		return
	}
	if _, ok := w.rev[pb]; ok {
		w.diff(path, "two objects on one side are one object on the other")
		return
	}
	w.fwd[pa], w.rev[pb] = pb, pa
	if pkg := a.Type().Elem().PkgPath(); strings.HasSuffix(pkg, "internal/netsim") || strings.HasSuffix(pkg, "internal/topo") {
		w.entered[a.Type().Elem().Name()]++
		w.walk(path, a.Elem(), b.Elem())
	}
}

// fabricsEqual walks two fabrics (pointers to FatTree) and
// returns the differences, after checking that the walk reached every device.
func fabricsEqual(t *testing.T, a, b any, hosts, switches, ports int) []string {
	t.Helper()
	w := newFabricWalker()
	w.walk("fabric", reflect.ValueOf(a), reflect.ValueOf(b))
	if w.entered["Host"] != hosts || w.entered["Switch"] != switches || w.entered["Port"] != ports || w.entered["PacketPool"] != 1 {
		t.Fatalf("walk entered %v, want %d hosts, %d switches, %d ports, 1 pool", w.entered, hosts, switches, ports)
	}
	return w.diffs
}

// field reads an unexported field of a netsim object.
func field(obj any, name string) reflect.Value {
	return reflect.ValueOf(obj).Elem().FieldByName(name)
}

// fabricUnderTest is what the hostile run and the comparison need of a
// fabric.
type fabricUnderTest struct {
	fabric   any // *FatTree
	eng      *sim.Engine
	pool     *netsim.PacketPool
	hosts    []*netsim.Host
	switches []*netsim.Switch
	links    []*netsim.Duplex
	pfc      bool
	ledgers  bool // some switch port keeps a ledger: no PFC, no shared buffer
}

func (f *fabricUnderTest) ports() []*netsim.Port {
	var out []*netsim.Port
	for _, h := range f.hosts {
		out = append(out, h.NIC)
	}
	for _, s := range f.switches {
		out = append(out, s.Ports...)
	}
	return out
}

// abuse runs a point on the fabric that leaves everything a point can leave:
// links cut and gray, rates degraded through the setter and edited the way
// runWCMP edits them, marking muted, handlers of both transports registered,
// a selector with memo and scratch, and — stopped at an instant chosen for
// it — packets in flight, NICs with packets sent ahead of their arrival,
// ledgers with followers, queues with packets, and under PFC paused ports.
// It fails the test if the instant does not come: a hostile point that is not
// hostile proves nothing.
func (f *fabricUnderTest) abuse(t *testing.T, sel netsim.Selector) {
	t.Helper()
	for _, s := range f.switches {
		s.SetSelector(sel)
	}
	n := len(f.hosts)
	f.links[0].AtoB.RateBps /= 2 // a builder-style edit, as runWCMP makes
	cfg := tcp.DefaultConfig()
	for i := 0; i < n; i++ {
		// Everybody sends to the last hosts of the fabric: incast on their
		// ToR, which is what fills queues and trips PFC.
		tcp.StartFlow(f.eng, cfg, netsim.FlowID(i+1), f.hosts[i], f.hosts[n-1-i%2], 4<<20)
	}
	u := udp.NewSender(f.eng, 1000, f.hosts[1], f.hosts[n-3], 4*Gbps, 1460)
	f.hosts[n-3].Register(1000, udp.NewSink())
	u.Start()

	up := f.links[len(f.links)-1] // a switch-to-switch cable, with or without a core
	mid := f.links[len(f.links)/2]
	grayed := 0
	f.eng.At(100*sim.Microsecond, func() {
		up.AtoB.SetLinkDown(true)
		up.BtoA.SetLinkDown(true)
		mid.AtoB.SetLinkDropFn(func(*netsim.Packet) bool { grayed++; return grayed%5 == 0 })
		mid.BtoA.SetRate(mid.BtoA.RateBps / 4)
		muteMarking(f.switches[0])
		muteMarking(f.switches[len(f.switches)-1])
	})

	want := map[string]bool{"in flight": true, "handlers": true, "packets out": true,
		"link down": true, "gray": true, "memo or scratch": true}
	if f.pfc {
		want["paused"], want["queued"], want["pause events"] = true, true, true
	} else {
		want["sent ahead"] = true // a NIC times nothing ahead toward a PFC switch
	}
	if f.ledgers {
		want["followers"] = true
	}
	var missing []string
	for at := 150 * sim.Microsecond; at < 3*sim.Millisecond; at += sim.Microsecond {
		f.eng.Run(at)
		if missing = f.missing(want); len(missing) == 0 {
			return
		}
	}
	t.Fatalf("the hostile point never left %v", missing)
}

// muteMarking stops a switch from ECN-marking by zeroing every egress
// queue's threshold: state a reset that forgets Queue.MarkK would leave.
func muteMarking(s *netsim.Switch) {
	for _, p := range s.Ports {
		p.Q.MarkK = 0
	}
}

// missing lists the members of want the fabric does not show right now.
func (f *fabricUnderTest) missing(want map[string]bool) []string {
	got := map[string]bool{
		"in flight":   f.eng.Pending() > 0,
		"packets out": f.pool.Live() > 0,
	}
	for _, h := range f.hosts {
		got["handlers"] = got["handlers"] || h.HandlerCount() > 0
	}
	for _, p := range f.ports() {
		got["sent ahead"] = got["sent ahead"] || field(p, "unarrived").Int() > 0
		got["followers"] = got["followers"] || field(p, "n").Int() > 0
		got["queued"] = got["queued"] || p.Q.Len() > 0
		got["paused"] = got["paused"] || p.Paused()
		got["link down"] = got["link down"] || p.Link.Down && p.Link.DroppedDown > 0
		got["gray"] = got["gray"] || p.Link.DropFn != nil && p.Link.DroppedGray > 0
	}
	for _, s := range f.switches {
		got["pause events"] = got["pause events"] || s.PauseEvents > 0
		scratch, owned := s.SelectorScratch()
		got["memo or scratch"] = got["memo or scratch"] || scratch != nil && owned || validMemoSlots(reflect.ValueOf(s).Elem()) > 0
	}
	var missing []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	slices.Sort(missing)
	return missing
}

// probe runs a small fixed workload to completion and returns what it did:
// two fabrics in one state must answer alike, event for event.
func (f *fabricUnderTest) probe() string {
	for _, s := range f.switches {
		s.SetSelector(routing.ECMP{})
	}
	n := len(f.hosts)
	var flows []*tcp.Flow
	for i := 0; i < n; i += 3 {
		flows = append(flows, tcp.StartFlow(f.eng, tcp.DefaultConfig(), netsim.FlowID(i+1), f.hosts[i], f.hosts[(i+n/2+1)%n], 300_000))
	}
	f.eng.RunUntilIdle()
	out := fmt.Sprintf("events=%d packets=%d", f.eng.Executed, f.pool.Gets)
	for _, fl := range flows {
		out += fmt.Sprintf(" %v/%d", fl.FCT(), fl.DataPackets())
	}
	return out
}

func fatTreeUnderTest(ft *FatTree) *fabricUnderTest {
	return &fabricUnderTest{fabric: ft, eng: ft.Eng, pool: ft.Pool, hosts: ft.Hosts, switches: ft.switches, links: ft.links,
		pfc: ft.P.PFC != nil, ledgers: ft.P.PFC == nil && ft.P.SharedBuffer == 0}
}

// checkResetEqualsFresh is the body of TestResetFabricEqualsFresh for one
// pair of configurations: used is built for the first and abused, reset
// rebuilds it for the second, fresh is built for the second.
func checkResetEqualsFresh(t *testing.T, used *fabricUnderTest, sel netsim.Selector, reset func(), fresh *fabricUnderTest) {
	t.Helper()
	used.abuse(t, sel)
	used.eng.Reset()
	reset()
	ports := len(used.ports())
	if diffs := fabricsEqual(t, fresh.fabric, used.fabric, len(used.hosts), len(used.switches), ports); len(diffs) != 0 {
		t.Fatalf("a reset fabric differs from a new one:\n  %s", strings.Join(diffs, "\n  "))
	}
	if want, got := fresh.probe(), used.probe(); got != want {
		t.Fatalf("the same workload ran differently\n  on a new fabric:   %s\n  on a reset fabric: %s", want, got)
	}
}

// TestResetFabricEqualsFresh: whatever a point left on a fabric, and whatever
// configuration it was built for, Reset(p) leaves what NewFatTree builds for
// p — every field of every device, cable and pool, found by reflection, so a
// field added tomorrow is compared tomorrow. Each group is one shape: the
// three-tier fat-tree, and the testbed's leaf-spine (one pod, no core), whose
// configurations add the shared buffer.
func TestResetFabricEqualsFresh(t *testing.T) {
	pfc := &netsim.PFCConfig{Pause: 20 * KB, Unpause: 10 * KB}
	other := func(p Params) Params {
		p.LinkRateBps, p.LinkDelay, p.HostDelay, p.SwitchDelay = 5*Gbps, 300*sim.Nanosecond, 10*sim.Microsecond, 2*sim.Microsecond
		p.QueueCap, p.MarkK = 150*KB, 30*KB
		return p
	}
	withPFC := func(p Params) Params { p.PFC = pfc; return p }
	unshared := func(p Params) Params { p.SharedBuffer = 0; return p }
	testbed := SmallTestbed() // shared buffer
	groups := []struct {
		name    string
		configs []Params
		odd     func() netsim.Selector // the selector of pairs whose i+j is odd
	}{
		{"fattree", []Params{TinyScale(), withPFC(TinyScale()), other(TinyScale()), withPFC(other(TinyScale()))},
			func() netsim.Selector { return &routing.Flowlet{Gap: 50 * sim.Microsecond} }},
		{"leafspine", []Params{testbed, unshared(testbed), withPFC(testbed), withPFC(other(unshared(testbed)))},
			func() netsim.Selector { return routing.FlowDyn{} }},
	}
	for _, g := range groups {
		for i, from := range g.configs {
			for j, to := range g.configs {
				t.Run(fmt.Sprintf("%s/%d-to-%d", g.name, i, j), func(t *testing.T) {
					used := NewFatTree(sim.NewEngine(), from)
					var sel netsim.Selector = routing.ECMP{}
					if (i+j)%2 == 1 {
						sel = g.odd()
					}
					checkResetEqualsFresh(t, fatTreeUnderTest(used), sel, func() { used.Reset(to) },
						fatTreeUnderTest(NewFatTree(sim.NewEngine(), to)))
				})
			}
		}
	}
}

// TestFabricWalkerSeesWhatAResetCouldMiss plants, one at a time, the state a
// forgetful reset would leave behind on an otherwise new fabric, and a field
// of a kind the walker has no rule for: each must come back as a difference.
func TestFabricWalkerSeesWhatAResetCouldMiss(t *testing.T) {
	p := TinyScale()
	p.PFC = &netsim.PFCConfig{Pause: 20 * KB, Unpause: 10 * KB}
	plants := map[string]func(ft *FatTree){
		"link down":      func(ft *FatTree) { ft.links[3].AtoB.SetLinkDown(true) },
		"gray hook":      func(ft *FatTree) { ft.links[3].BtoA.SetLinkDropFn(func(*netsim.Packet) bool { return false }) },
		"rate":           func(ft *FatTree) { ft.Cores[0].Ports[1].SetRate(Gbps) },
		"marking muted":  func(ft *FatTree) { muteMarking(ft.Tors[1][0]) },
		"paused":         func(ft *FatTree) { ft.Hosts[2].NIC.SetPaused(true) },
		"handler":        func(ft *FatTree) { ft.Hosts[5].Register(9, udp.NewSink()) },
		"selector":       func(ft *FatTree) { ft.Aggs[0][1].SetSelector(routing.ECMP{}) },
		"scratch":        func(ft *FatTree) { ft.Aggs[0][1].SetSelectorScratch(7) },
		"pool counters":  func(ft *FatTree) { ft.Hosts[0].NewPacket() },
		"queued packet":  func(ft *FatTree) { ft.Hosts[2].NIC.SetPaused(true); ft.Hosts[2].NIC.Enqueue(&netsim.Packet{Size: 100}) },
		"switch counter": func(ft *FatTree) { ft.Cores[1].RxPackets++ },
		"delay":          func(ft *FatTree) { ft.Hosts[1].Delay++ },
		"configuration":  func(ft *FatTree) { q := p; q.PFC = nil; ft.Reset(q); ft.P = p },
	}
	for name, plant := range plants {
		a, b := NewFatTree(sim.NewEngine(), p), NewFatTree(sim.NewEngine(), p)
		ports := len(fatTreeUnderTest(a).ports())
		if diffs := fabricsEqual(t, a, b, len(a.Hosts), len(a.switches), ports); len(diffs) != 0 {
			t.Fatalf("two new fabrics differ: %v", diffs)
		}
		plant(b)
		if diffs := fabricsEqual(t, a, b, len(a.Hosts), len(a.switches), ports); len(diffs) == 0 {
			t.Errorf("%s: planted and not seen", name)
		}
	}
	// What a reset keeps on purpose is no difference: a scratch no selector
	// owns any more.
	a, b := NewFatTree(sim.NewEngine(), p), NewFatTree(sim.NewEngine(), p)
	b.Aggs[0][1].SetSelectorScratch(7)
	b.Reset(p)
	if diffs := fabricsEqual(t, a, b, len(a.Hosts), len(a.switches), len(fatTreeUnderTest(a).ports())); len(diffs) != 0 {
		t.Errorf("a scratch the reset disowned is seen: %v", diffs)
	}
	type odd struct{ m map[int]int }
	w := newFabricWalker()
	w.walk("odd", reflect.ValueOf(odd{}), reflect.ValueOf(odd{}))
	if len(w.diffs) != 1 || !strings.Contains(w.diffs[0], "no rule") {
		t.Errorf("a map field got through the walker: %v", w.diffs)
	}
}
