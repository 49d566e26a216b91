// Package experiments reproduces every table and figure of the paper's
// evaluation (§4): Table 1's validation microbenchmark, the all-to-all
// latency comparisons of Figures 3 and 4, the out-of-order accounting of
// §4.2.3, the partition-aggregate jobs of Figure 5, the N and T sensitivity
// sweeps of Figures 6 and 7, the testbed-style leaf-spine runs of Figure 8,
// the UDP hotspot of §4.3.1, the path-diversity analysis of §4.3.2, plus a
// link-failure recovery experiment for the paper's §3.3.2 claim and
// ablations for the §3.4/§5 design options.
//
// Every experiment is deterministic for a given Options value and reports
// the same rows/series as the paper, normalized to ECMP where the paper
// normalizes. Default scales are reduced to finish quickly on one core; set
// Options.Scale to ScalePaper for the full 128-server configuration.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"flowbender/internal/core"
	"flowbender/internal/fluid"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
)

// Scheme identifies one of the load-balancing schemes under comparison.
type Scheme int

// The comparison set: the paper's §4 schemes (ECMP, FlowBender, RPS,
// DeTail) plus the competitor matrix v2 — flowlet switching with a fixed
// gap, FlowDyn-style dynamic gap detection, RepFlow short-flow replication,
// and DiffFlow short/long differentiation.
const (
	ECMP Scheme = iota
	FlowBender
	RPS
	DeTail
	Flowlet
	FlowDyn
	RepFlow
	DiffFlow
)

// AllSchemes lists the comparison set in presentation order: the paper's
// §4 schemes first, then the post-2014 competitors.
var AllSchemes = []Scheme{ECMP, FlowBender, RPS, DeTail, Flowlet, FlowDyn, RepFlow, DiffFlow}

// schemes is the one table of load-balancing schemes, indexed by Scheme:
// the name -schemes accepts, the mechanism and default parameters
// -list-schemes prints, whether an all-to-all point of the scheme may split
// across engine shards, and the scheme whose fluid model it runs. The fluid
// model is the scheme's own unless the model lacks what sets the scheme
// apart: it has no packet gaps for Flowlet and FlowDyn to switch on (they
// run ECMP's) and no PFC for DeTail (it runs RPS's spraying).
//
// A scheme shards when its selector is a deterministic function of
// switch-local state — the flow hash, the per-switch flowlet table, egress
// queue depths and the switch's own clock — since the sharded schedule
// replays every switch's packet-arrival sequence exactly. FlowBender, RPS
// and DiffFlow draw from one shared RNG stream at packet-send or selection
// time (splitting its consumers across shards would reorder the draws),
// RepFlow plans replica sub-flows at the host (the sharded planner pre-plans
// exactly one flow per arrival), and DeTail needs PFC, whose synchronous
// back-pressure leaves no cross-shard lookahead; shardPlan runs them serial.
var schemes = [...]struct {
	name, desc, params string
	shardable          bool
	fluid              Scheme
}{
	ECMP: {"ECMP", "static per-flow hashing over equal-cost paths", "", true, ECMP},
	FlowBender: {"FlowBender", "host reroutes congested/failed flows by re-drawing the hash field V",
		fmt.Sprintf("T=%.0f%% N=%d stability-gap=%d epochs", core.DefaultT*100, core.DefaultN, StabilityGap), false, FlowBender},
	RPS:    {"RPS", "random packet spraying: uniform random path per packet", "", false, RPS},
	DeTail: {"DeTail", "per-packet least-queued adaptive routing on a lossless (PFC) fabric", "", false, RPS},
	Flowlet: {"Flowlet", "flowlet switching: path redraw after a fixed idle gap",
		fmt.Sprintf("gap=%dus (InfiniteGap degenerates to ECMP)", DefaultFlowletGap/sim.Microsecond), true, ECMP},
	FlowDyn: {"FlowDyn", "flowlet switching with a dynamic per-port gap from tracked drain times",
		"gap=[20us,1ms] mult=2.0 ewma-gain=0.25", true, ECMP},
	RepFlow: {"RepFlow", "short flows replicated on two ECMP paths; first finisher wins",
		fmt.Sprintf("cutoff=%dKB replication-factor=2", RepFlowCutoff/1024), false, RepFlow},
	DiffFlow: {"DiffFlow", "short flows sprayed per packet, long flows pinned per flow",
		fmt.Sprintf("cutoff=%dKB (0 degenerates to ECMP, unbounded to RPS)", DiffFlowCutoff/1024), false, DiffFlow},
}

func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemes) {
		return fmt.Sprintf("scheme(%d)", int(s))
	}
	return schemes[s].name
}

// SchemeByName resolves a scheme by its name, case-insensitively (for the
// -schemes command-line flag).
func SchemeByName(name string) (Scheme, bool) {
	for s, row := range schemes {
		if strings.EqualFold(row.name, name) {
			return Scheme(s), true
		}
	}
	return 0, false
}

// schemeList joins the schemes' names with sep.
func schemeList(ss []Scheme, sep string) string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.String()
	}
	return strings.Join(names, sep)
}

// PrintSchemes renders the scheme table (fbsim -list-schemes).
func PrintSchemes(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\talltoall path\tfluid model\tdescription\tparameters")
	for _, row := range schemes {
		path := "serial"
		if row.shardable {
			path = "sharded"
		}
		params := row.params
		if params == "" {
			params = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", row.name, path, row.fluid, row.desc, params)
	}
	tw.Flush()
}

// schemeSetup captures everything a scheme changes relative to the ECMP
// baseline: the transport configuration, the switch port selector, and
// whether the fabric runs lossless PFC.
type schemeSetup struct {
	cfg tcp.Config
	sel netsim.Selector
	pfc *netsim.PFCConfig
}

// Default parameters of the competitor schemes. Exposed as constants so the
// docs, the -list-schemes registry, and the tests agree on one value.
const (
	// DefaultFlowletGap is the fixed idle-gap threshold of the Flowlet
	// scheme: roughly 2x the fabric's base RTT, the classical "safe to
	// switch" operating point.
	DefaultFlowletGap = 200 * sim.Microsecond
	// RepFlowCutoff is RepFlow's short-flow replication threshold (the
	// paper's 100 KB).
	RepFlowCutoff int64 = 100 * 1024
	// DiffFlowCutoff is DiffFlow's short-flow spray threshold: flows below
	// it are sprayed per packet, flows at or above stay on per-flow paths.
	DiffFlowCutoff int64 = 100 * 1024
)

// StabilityGap is the default minimum number of RTT epochs between
// congestion-triggered reroutes (the paper's §5.1 extension). The paper's
// minimal FlowBender (no limiter) reroutes on every congested RTT; on this
// substrate that level of churn keeps DCTCP windows collapsed whenever every
// path is busy (see DESIGN.md), so the evaluation applies the paper's own
// stability mitigation by default and the ablation experiment quantifies it.
const StabilityGap = 5

// setup builds the per-scheme configuration exactly as §4.2 describes:
// every scheme runs over DCTCP; FlowBender adds the controller with T = 5%,
// N = 1 by default (plus the §5.1 reroute rate limit, see StabilityGap);
// DeTail gets lossless PFC (pause 20 KB / unpause 10 KB) with fast
// retransmit disabled; RPS sprays per packet. raw takes the FlowBender
// config verbatim, without the StabilityGap/DesyncN evaluation defaults —
// the ablation experiment uses this to measure the paper's minimal
// configuration.
func (s Scheme) setup(rng *sim.RNG, fb core.Config, raw bool) schemeSetup {
	cfg := tcp.DefaultConfig()
	out := schemeSetup{cfg: cfg, sel: routing.ECMP{}}
	switch s {
	case ECMP:
	case FlowBender:
		out.cfg.FlowBender = flowBenderConfig(rng, fb, raw)
	case RPS:
		out.sel = &routing.RPS{RNG: rng.Fork("rps")}
	case DeTail:
		out.sel = routing.DeTail{}
		out.cfg.DisableFastRetx = true
		out.pfc = &netsim.PFCConfig{Pause: 20 * topo.KB, Unpause: 10 * topo.KB}
	case Flowlet:
		out.sel = &routing.Flowlet{Gap: DefaultFlowletGap}
	case FlowDyn:
		out.sel = routing.FlowDyn{}
	case RepFlow:
		out.cfg.Replicate = &tcp.ReplicateConfig{Cutoff: RepFlowCutoff}
	case DiffFlow:
		// Forked under the same label RPS uses so the cutoff-∞ degenerate
		// configuration draws the identical stream as an RPS run — the
		// differential test pins bit-identity between the two.
		out.sel = &routing.DiffFlow{RNG: rng.Fork("rps")}
		out.cfg.SprayShortCutoff = DiffFlowCutoff
	default:
		panic("experiments: unknown scheme")
	}
	return out
}

// flowBenderConfig resolves the controller configuration both engines run:
// fb's overrides on the paper defaults, drawing from the "flowbender" fork
// of the scheme stream, plus — unless raw — the evaluation defaults.
func flowBenderConfig(rng *sim.RNG, fb core.Config, raw bool) *core.Config {
	if fb.RNG == nil {
		fb.RNG = rng.Fork("flowbender")
	}
	if !raw {
		if fb.MinEpochGap == 0 {
			fb.MinEpochGap = StabilityGap
		}
		// Randomized reroute desynchronization (§3.4.2): without it, flows
		// sharing a congested link observe the marks in the same RTT and
		// all reroute together, cascading into rerouting waves.
		fb.DesyncN = true
	}
	return &fb
}

// fluidConfig maps a scheme onto the fluid engine's knobs, making setup's
// decisions for the flow-level model so the two engines run the same policy.
// A scheme runs the model its table row names; the five models are:
//
//   - ECMP: per-flow hashed paths.
//   - FlowBender: the real core.FlowBender controller per flow, fed from
//     the fluid marking estimate once per RTT epoch.
//   - RPS: every flow sprayed over all paths.
//   - RepFlow: short flows replicated, first copy wins.
//   - DiffFlow: short flows sprayed, long flows on per-flow paths.
func fluidConfig(p topo.Params, scheme Scheme, fb core.Config, raw bool, rng *sim.RNG) fluid.Config {
	cfg := fluid.Config{Params: p}
	switch schemes[scheme].fluid {
	case ECMP:
	case FlowBender:
		cfg.FlowBender = flowBenderConfig(rng, fb, raw)
	case RPS:
		cfg.Spray = true
		cfg.ShortCutoff = math.MaxInt64
	case RepFlow:
		cfg.Replicate = true
		cfg.ShortCutoff = RepFlowCutoff
	case DiffFlow:
		cfg.Spray = true
		cfg.ShortCutoff = DiffFlowCutoff
	default:
		panic("experiments: " + scheme.String() + " names no fluid model")
	}
	return cfg
}

// shardable reports whether an all-to-all point of this scheme may split
// across conservatively synchronized engine shards and stay bit-identical
// to the serial run (the schemes table says which, and why).
func (s Scheme) shardable() bool { return schemes[s].shardable }
