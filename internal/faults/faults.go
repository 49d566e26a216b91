// Package faults is a deterministic, engine-driven fault-injection layer
// for the simulated fat-tree. A Plan is a schedule of typed link events —
// clean and half-open cuts, periodic flaps with RNG-jittered intervals, gray
// (probabilistically lossy) links and rate degradation — applied to cables
// named by position ("aggcore:0/0/0", see Apply).
//
// Every state change executes as a sim.Engine event and all randomness comes
// from streams forked off the simulation point's seed, so fault replay is
// byte-identical run to run and independent of host scheduling: the same
// Plan on the same seed produces the same packet-level history at any
// -parallel setting.
package faults

import (
	"fmt"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
)

// Dir selects which direction(s) of a cable a link event affects. Cutting a
// single direction produces a half-open failure: traffic flows one way and
// silently dies the other.
type Dir uint8

// Cable directions.
const (
	// Both affects both directions (a cut cable).
	Both Dir = iota
	// AtoB affects only the Duplex's A-to-B direction.
	AtoB
	// BtoA affects only the Duplex's B-to-A direction.
	BtoA
)

// ports returns the egress ports of dx the direction selects.
func (d Dir) ports(dx *netsim.Duplex) []*netsim.Port {
	switch d {
	case AtoB:
		return []*netsim.Port{dx.AtoB}
	case BtoA:
		return []*netsim.Port{dx.BtoA}
	default:
		return []*netsim.Port{dx.AtoB, dx.BtoA}
	}
}

// Kind is the type of a fault event.
type Kind uint8

// Supported fault kinds.
const (
	// LinkDown cuts the selected direction(s) of a cable.
	LinkDown Kind = iota
	// LinkUp restores the selected direction(s).
	LinkUp
	// Flap toggles the cable down/up periodically: down for DownFor, up for
	// UpFor, each interval jittered by ±Jitter, until Until (0 = forever).
	Flap
	// GrayDrop makes the selected direction(s) silently lose each packet
	// with probability DropProb (0 clears the gray state).
	GrayDrop
	// Degrade reduces the selected direction(s)' line rate to RateFraction
	// of the built rate (1 restores it).
	Degrade
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case Flap:
		return "flap"
	case GrayDrop:
		return "gray-drop"
	case Degrade:
		return "degrade"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled fault on one cable.
type Event struct {
	// At is the virtual time the event takes effect.
	At sim.Time
	// Kind selects the fault type.
	Kind Kind
	// Link is the cable name (see Apply).
	Link string
	// Dir selects the affected direction(s) of Link (default Both).
	Dir Dir

	// DownFor and UpFor are the Flap half-periods.
	DownFor, UpFor sim.Time
	// Jitter is the ± fraction each Flap interval is perturbed by, drawn
	// uniformly from the event's forked RNG stream (0 = strictly periodic).
	Jitter float64
	// Until stops a Flap (the cable is left up); 0 flaps forever, and a
	// negative Until is refused.
	Until sim.Time

	// DropProb is GrayDrop's per-packet loss probability in [0, 1].
	DropProb float64
	// RateFraction is Degrade's new rate as a fraction of the built rate,
	// in (0, 1].
	RateFraction float64
}

// Plan is a schedule of fault events, applied together by Apply.
type Plan struct {
	Events []Event
}

// Cut returns a clean bidirectional cable cut at time at.
func Cut(at sim.Time, link string) Event {
	return Event{At: at, Kind: LinkDown, Link: link, Dir: Both}
}

// HalfOpenCut cuts only one direction of the cable at time at.
func HalfOpenCut(at sim.Time, link string, dir Dir) Event {
	return Event{At: at, Kind: LinkDown, Link: link, Dir: dir}
}

// FlapLink flaps the cable from time at: down downFor, up upFor, intervals
// jittered ±jitter, until until.
func FlapLink(at sim.Time, link string, downFor, upFor sim.Time, jitter float64, until sim.Time) Event {
	return Event{At: at, Kind: Flap, Link: link, Dir: Both,
		DownFor: downFor, UpFor: upFor, Jitter: jitter, Until: until}
}

// Gray makes the cable silently lossy at rate p from time at.
func Gray(at sim.Time, link string, p float64) Event {
	return Event{At: at, Kind: GrayDrop, Link: link, Dir: Both, DropProb: p}
}

// DegradeLink reduces the cable's rate to fraction of the built rate.
func DegradeLink(at sim.Time, link string, fraction float64) Event {
	return Event{At: at, Kind: Degrade, Link: link, Dir: Both, RateFraction: fraction}
}

// validate checks every field of the event the scheduler reads but the cable
// name, which Apply resolves against the fabric. Each range is written as the
// condition that holds, so a NaN, which fails every comparison, is out of it.
func (ev *Event) validate(i int) error {
	if ev.Kind > Degrade {
		return fmt.Errorf("faults: event %d: unknown kind %v", i, ev.Kind)
	}
	if ev.At < 0 {
		return fmt.Errorf("faults: event %d (%s): negative time %v", i, ev.Kind, ev.At)
	}
	if ev.Dir > BtoA {
		return fmt.Errorf("faults: event %d (%s): unknown direction %d", i, ev.Kind, ev.Dir)
	}
	switch ev.Kind {
	case Flap:
		if ev.DownFor <= 0 || ev.UpFor <= 0 {
			return fmt.Errorf("faults: event %d (flap): DownFor and UpFor must be > 0", i)
		}
		if !(ev.Jitter >= 0 && ev.Jitter < 1) {
			return fmt.Errorf("faults: event %d (flap): Jitter %v out of [0, 1)", i, ev.Jitter)
		}
		if ev.Until < 0 {
			return fmt.Errorf("faults: event %d (flap): negative Until %v", i, ev.Until)
		}
	case GrayDrop:
		if !(ev.DropProb >= 0 && ev.DropProb <= 1) {
			return fmt.Errorf("faults: event %d (gray-drop): DropProb %v out of [0, 1]", i, ev.DropProb)
		}
	case Degrade:
		if !(ev.RateFraction > 0 && ev.RateFraction <= 1) {
			return fmt.Errorf("faults: event %d (degrade): RateFraction %v out of (0, 1]", i, ev.RateFraction)
		}
	}
	return nil
}

// injector is the applied state of one Plan on one fabric instance.
type injector struct {
	eng *sim.Engine

	// origRates remembers each degraded port's built rate for restoration.
	origRates map[*netsim.Port]int64
}

// Apply validates the plan, resolves every cable name against the fat-tree,
// and schedules all events on the engine. A cable is named by position:
//
//	"host:<h>"  "toragg:<pod>/<tor>/<agg>"  "aggcore:<pod>/<agg>/<k>"
//
// Resolution is eager: a misnamed cable is an error at Apply time, not a
// mid-run surprise. rng must be a stream forked from the point's seed (e.g.
// root.Fork("faults")); each event gets its own sub-stream, so adding an
// event never perturbs another's draws.
func Apply(eng *sim.Engine, rng *sim.RNG, ft *topo.FatTree, plan Plan) error {
	inj := &injector{eng: eng, origRates: make(map[*netsim.Port]int64)}
	for i := range plan.Events {
		ev := plan.Events[i]
		if err := ev.validate(i); err != nil {
			return err
		}
		evRNG := rng.Fork(fmt.Sprintf("event/%d", i))
		dx, err := cable(ft, ev.Link)
		if err != nil {
			return err
		}
		inj.schedule(ev, dx, evRNG)
	}
	return nil
}

// schedule files one validated event on its resolved cable.
func (inj *injector) schedule(ev Event, dx *netsim.Duplex, evRNG *sim.RNG) {
	switch ev.Kind {
	case LinkDown, LinkUp:
		down := ev.Kind == LinkDown
		ports := ev.Dir.ports(dx)
		inj.eng.At(ev.At, func() {
			for _, port := range ports {
				port.SetLinkDown(down)
			}
		})
	case Flap:
		inj.eng.At(ev.At, func() { inj.flap(ev, dx, evRNG, true) })
	case GrayDrop:
		ports := ev.Dir.ports(dx)
		p := ev.DropProb
		inj.eng.At(ev.At, func() {
			for _, port := range ports {
				if p <= 0 {
					port.SetLinkDropFn(nil)
					continue
				}
				rng := evRNG // one stream per event; draws interleave in engine order
				port.SetLinkDropFn(func(*netsim.Packet) bool { return rng.Float64() < p })
			}
		})
	case Degrade:
		ports := ev.Dir.ports(dx)
		frac := ev.RateFraction
		inj.eng.At(ev.At, func() {
			for _, port := range ports {
				orig, ok := inj.origRates[port]
				if !ok {
					orig = port.RateBps
					inj.origRates[port] = orig
				}
				if frac >= 1 {
					port.SetRate(orig)
					delete(inj.origRates, port)
					continue
				}
				rate := int64(float64(orig) * frac)
				if rate < 1 {
					rate = 1
				}
				port.SetRate(rate)
			}
		})
	}
}

// flap runs one transition of a Flap event and schedules the next. Each
// interval is jittered multiplicatively: d * (1 + Jitter*(2u-1)), u uniform
// in [0,1) from the event's own RNG stream.
func (inj *injector) flap(ev Event, dx *netsim.Duplex, evRNG *sim.RNG, goDown bool) {
	now := inj.eng.Now()
	if ev.Until > 0 && now >= ev.Until {
		for _, port := range ev.Dir.ports(dx) {
			port.SetLinkDown(false)
		}
		return
	}
	for _, port := range ev.Dir.ports(dx) {
		port.SetLinkDown(goDown)
	}
	d := ev.UpFor
	if goDown {
		d = ev.DownFor
	}
	if ev.Jitter > 0 {
		d = sim.Time(float64(d) * (1 + ev.Jitter*(2*evRNG.Float64()-1)))
		if d < 1 {
			d = 1
		}
	}
	inj.eng.Schedule(d, func() { inj.flap(ev, dx, evRNG, !goDown) })
}
