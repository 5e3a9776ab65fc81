// Package traffic is the open-loop serving harness: it generates
// arrival-timed request traffic the way production serving sees it —
// requests arrive on their own clock whether or not the server has
// kept up — and drives the live engine server with it.
//
// The pieces compose in layers:
//
//   - arrival processes (Poisson, Bursty MMPP, Diurnal multi-period)
//     draw seeded arrival timelines;
//   - a Scenario layers per-cohort request shapes over an arrival
//     process: each cohort couples a prompt/generation-length
//     distribution (internal/workload) with a latency SLO and a
//     traffic share — chat short-prompt, RAG long-prompt, agentic
//     many-short-turns, batch summarization;
//   - Scenario.Generate produces a Trace: a replayable, serializable
//     list of timed requests. The same seed always yields the same
//     trace, byte for byte.
//
// A trace is consumed two ways. Run plays it open-loop in real time
// against a live server (each request submitted from its own goroutine
// at its due instant, TTFT/TPOT measured per request, goodput counted
// under each cohort's SLO). SimulateAdmission replays the same trace
// through the live server's own admission code (engine.CheckSubmit at
// arrival, engine.PlanWave at every wave boundary) on a virtual clock —
// a pure function used to compare admission policies deterministically
// and to test that a seeded trace always produces identical waves.
//
// Sweep runs a scenario at several arrival-rate multiples and FindKnee
// locates the saturation knee — the point past which offered load no
// longer buys goodput. WriteBench records the result as the standing
// BENCH_serve.json trajectory (`moebench -exp slo`).
package traffic

import (
	"moelightning/internal/engine"
)

// SLO is a request's latency service-level objective (alias of the
// engine's type, so cohort SLOs flow straight into SubmitSLO).
type SLO = engine.SLO
