// Package flowbender is a from-scratch reproduction of "FlowBender:
// Flow-level Adaptive Routing for Improved Latency and Throughput in
// Datacenter Networks" (Kabbani, Vamanan, Duchene, Hasan — CoNEXT 2014).
//
// The module contains the FlowBender controller itself (internal/core), the
// full substrate it is evaluated on — a deterministic packet-level
// datacenter fabric simulator (internal/sim, internal/netsim,
// internal/topo), a NewReno+DCTCP transport (internal/tcp), the competing
// ECMP/RPS/DeTail/WCMP path selectors (internal/routing) — and a harness
// that regenerates every table and figure of the paper's evaluation
// (internal/experiments, cmd/fbsim, cmd/fbbench).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package flowbender
