package netsim

import (
	"testing"

	"flowbender/internal/sim"
)

// sharedBufSwitch builds a 3-port switch (two sources in, one slow egress)
// with a shared pool.
func TestSharedBufferBoundsTotal(t *testing.T) {
	eng := sim.NewEngine()
	rate := int64(10_000_000_000)
	cfg := SwitchConfig{QueueCap: 1 << 30, SharedBuffer: 10_000}
	sw := NewSwitch(eng, 9, 2, rate, cfg)
	dst := NewHost(eng, 1, rate, 0)
	src := NewHost(eng, 0, rate, 0)
	WireHost(src, sw, 0, 0)
	WireHost(dst, sw, 1, 0)
	sw.SetRoutes([][]int32{0: {0}, 1: {1}})
	sw.Ports[1].RateBps = 10_000_000 // severe bottleneck: queue builds

	var got int
	dst.Register(1, handlerFunc(func(*Packet) { got++ }))
	for i := 0; i < 100; i++ {
		src.Send(&Packet{Flow: 1, Dst: 1, Size: 1000})
	}
	eng.Run(sim.Second)

	if sw.DropsNoBuf == 0 {
		t.Fatal("no drops despite shared pool exhaustion")
	}
	if got+int(sw.DropsNoBuf) != 100 {
		t.Fatalf("conservation: %d delivered + %d dropped != 100", got, sw.DropsNoBuf)
	}
	// The high-water occupancy of the egress queue can never exceed the
	// shared pool.
	if sw.Ports[1].Q.MaxBytes > 10_000 {
		t.Fatalf("queue exceeded shared pool: %d", sw.Ports[1].Q.MaxBytes)
	}
	eng.RunUntilIdle()
	if sw.buffered != 0 {
		t.Fatalf("buffer accounting leak: %d bytes after drain", sw.buffered)
	}
}

func TestSharedBufferAccountsAcrossPorts(t *testing.T) {
	eng := sim.NewEngine()
	rate := int64(10_000_000_000)
	cfg := SwitchConfig{QueueCap: 1 << 30, SharedBuffer: 5_000}
	sw := NewSwitch(eng, 9, 3, rate, cfg)
	src := NewHost(eng, 0, rate, 0)
	d1 := NewHost(eng, 1, rate, 0)
	d2 := NewHost(eng, 2, rate, 0)
	WireHost(src, sw, 0, 0)
	WireHost(d1, sw, 1, 0)
	WireHost(d2, sw, 2, 0)
	sw.SetRoutes([][]int32{0: {0}, 1: {1}, 2: {2}})
	sw.Ports[1].RateBps = 1_000_000
	sw.Ports[2].RateBps = 1_000_000
	d1.Register(1, handlerFunc(func(*Packet) {}))
	d2.Register(2, handlerFunc(func(*Packet) {}))

	// Fill both egress queues from one input: the POOL must limit the sum.
	for i := 0; i < 20; i++ {
		src.Send(&Packet{Flow: 1, Dst: 1, Size: 1000})
		src.Send(&Packet{Flow: 2, Dst: 2, Size: 1000})
	}
	eng.Run(10 * sim.Millisecond)
	sum := sw.Ports[1].Q.MaxBytes + sw.Ports[2].Q.MaxBytes
	if sum > 5_000+2_000 { // pool + one serializing packet per port
		t.Fatalf("combined occupancy %d exceeded the shared pool", sum)
	}
	if sw.DropsNoBuf == 0 {
		t.Fatal("pool never rejected anything")
	}
}
