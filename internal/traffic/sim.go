package traffic

import (
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/workload"
)

// SimConfig parameterizes a virtual-time admission simulation.
type SimConfig struct {
	// Policy is the live server's own config, honored as the server
	// honors it: engine.BatchConfig derives the wave shape and KV budget
	// from it (micro-batch sizes, GenLen, CacheTokens, KVDtype,
	// SharedPrefixKV), engine.EffGenLen each request's generation
	// length (HonorRequestGenLen); SLOAware and StarvationWaves order
	// the queue, MaxQueuedRequests, MaxQueuedTokens and SLOAwareShed
	// shed arrivals, and EnforceDeadlines fails requests whose TTFT
	// budget expired in the queue. Its execution fields are ignored.
	Policy engine.ServeConfig
	// KVDim is the model's per-token K/V width (model.Config.KVDim),
	// which prices the KV budget in bytes as the server does. Zero
	// budgets in tokens: the same decisions under a float32 KV codec.
	KVDim int
	// PerPromptToken and PerDecodeStep are the virtual cost model: a
	// wave's prefill takes admitted-prompt-tokens x PerPromptToken, and
	// its decode takes its longest generation x PerDecodeStep. Zero
	// selects 100us and 2ms — roughly the tiny functional engine's
	// shape; only relative magnitudes matter for policy comparison.
	PerPromptToken time.Duration
	PerDecodeStep  time.Duration
}

// SimWave is one simulated wave boundary.
type SimWave struct {
	// Start and End bound the wave on the virtual clock (offsets from
	// the trace start). A boundary that ran no wave (everything queued
	// failed) has End == Start and no Admitted.
	Start, End time.Duration
	// Admitted lists request IDs in placement order; Deferred and Failed
	// list the requests passed over and failed at the boundary, in queue
	// order.
	Admitted, Deferred, Failed []int
}

// SimReport is the outcome of a virtual-time admission simulation.
type SimReport struct {
	Waves []SimWave
	// TTFT maps request ID to its simulated time-to-first-token.
	TTFT map[int]time.Duration
	// SLO accounting over SLO-bearing requests (failed or shed = TTFT
	// miss).
	SLORequests, SLOMet, SLOMissTTFT, SLOMissTPOT int
	// MaxDeferrals is the worst per-request deferral count observed —
	// the measured starvation bound.
	MaxDeferrals int
	// Dropped lists requests failed at a wave boundary: TTFT expired in
	// the queue, nothing fits, or no progress.
	Dropped []int
	// Shed lists requests rejected by overload control at arrival (the
	// live server's ErrOverloaded): never queued, never admitted.
	Shed []int
}

// SimulateAdmission replays a trace through the live server's
// wave-boundary admission code — engine.CheckSubmit at every arrival
// and engine.PlanWave at every boundary — on a virtual clock. It is a
// pure function of (trace, cfg), so the admitted waves are
// bit-reproducible; the determinism and FIFO-vs-slack comparisons rest
// on this.
//
// The cost model is deliberately simple: a wave occupies the server for
// prefill (admitted prompt tokens x PerPromptToken) plus decode (its
// longest generation x PerDecodeStep), every admitted request's first
// token lands at the end of prefill, and arrivals during the wave queue
// for the next boundary. SLO-aware shedding reads the generation rate of the waves
// finished when the request arrives.
func SimulateAdmission(trace Trace, cfg SimConfig) (SimReport, error) {
	if err := trace.validate(); err != nil {
		return SimReport{}, err
	}
	bc := engine.BatchConfig(cfg.Policy, cfg.KVDim)
	if err := bc.Validate(); err != nil {
		return SimReport{}, err
	}
	genLen := func(r workload.Request) int { return engine.EffGenLen(cfg.Policy, r) }
	perPrompt := cfg.PerPromptToken
	if perPrompt <= 0 {
		perPrompt = 100 * time.Microsecond
	}
	perStep := cfg.PerDecodeStep
	if perStep <= 0 {
		perStep = 2 * time.Millisecond
	}

	// base anchors the planner's wall-clock arithmetic at a fixed
	// instant so the simulation is a pure function of the trace.
	base := time.Unix(0, 0)
	rep := SimReport{TTFT: make(map[int]time.Duration)}
	next := 0 // first event not yet arrived
	var pending []engine.AdmissionItem
	var prevDeferred []uint64
	var clock time.Duration
	// Generated tokens and busy time of finished waves, and the share of
	// both that the last wave added (it is not yet finished for requests
	// arriving during it).
	var genTokens, lastTokens int
	var busy, lastDur, lastEnd time.Duration

	for next < len(trace.Events) || len(pending) > 0 {
		// Admit everything that has arrived by now; if the queue is
		// empty, idle forward to the next arrival.
		if len(pending) == 0 && trace.Events[next].At > clock {
			clock = trace.Events[next].At
		}
		queuedTokens := 0
		for _, it := range pending {
			queuedTokens += it.Request.PromptLen + genLen(it.Request)
		}
		for ; next < len(trace.Events) && trace.Events[next].At <= clock; next++ {
			ev := trace.Events[next]
			d := engine.Demand{ID: ev.Request.ID, Tokens: ev.Request.PromptLen + genLen(ev.Request), TTFT: ev.SLO.TTFT}
			tok, dur := genTokens, busy
			if ev.At < lastEnd {
				tok, dur = tok-lastTokens, dur-lastDur
			}
			var rate float64
			if dur > 0 {
				rate = float64(tok) / dur.Seconds()
			}
			if engine.CheckSubmit(cfg.Policy, len(pending), queuedTokens, []engine.Demand{d}, rate) != nil {
				rep.Shed = append(rep.Shed, ev.Request.ID)
				continue
			}
			pending = append(pending, engine.AdmissionItem{
				Request: ev.Request, Submitted: base.Add(ev.At), SLO: ev.SLO, Key: uint64(next),
			})
			queuedTokens += d.Tokens
		}
		if len(pending) == 0 {
			prevDeferred = nil
			continue
		}

		plan := engine.PlanWave(pending, base.Add(clock), prevDeferred, cfg.Policy, bc)
		wave := SimWave{Start: clock, End: clock}
		promptTokens, steps, tokens := 0, 0, 0
		for _, mb := range plan.MicroBatches {
			for _, i := range mb {
				r := pending[i].Request
				wave.Admitted = append(wave.Admitted, r.ID)
				promptTokens += r.PromptLen
				steps = max(steps, genLen(r))
				tokens += genLen(r)
			}
		}
		for _, f := range plan.Failed {
			wave.Failed = append(wave.Failed, pending[f.Index].Request.ID)
		}
		rep.Dropped = append(rep.Dropped, wave.Failed...)
		var deferred []engine.AdmissionItem
		for _, i := range plan.Deferred {
			it := pending[i]
			it.Deferrals++
			rep.MaxDeferrals = max(rep.MaxDeferrals, it.Deferrals)
			wave.Deferred = append(wave.Deferred, it.Request.ID)
			deferred = append(deferred, it)
		}

		// The wave occupies [clock, clock+prefill+decode); first tokens
		// land at the end of prefill.
		if len(wave.Admitted) > 0 {
			prefill := time.Duration(promptTokens) * perPrompt
			wave.End = clock + prefill + time.Duration(steps)*perStep
			for _, mb := range plan.MicroBatches {
				for _, i := range mb {
					rep.TTFT[pending[i].Request.ID] = clock + prefill - pending[i].Submitted.Sub(base)
				}
			}
			lastTokens, lastDur, lastEnd = tokens, wave.End-clock, wave.End
			genTokens += lastTokens
			busy += lastDur
		}
		rep.Waves = append(rep.Waves, wave)
		pending, prevDeferred = deferred, plan.DeferredKeys
		clock = wave.End
	}

	// Judge SLOs: an admitted request's TTFT is simulated; TPOT is the
	// cost model's constant decode cadence. Shed and failed requests
	// miss TTFT.
	for _, ev := range trace.Events {
		if ev.SLO.IsZero() {
			continue
		}
		rep.SLORequests++
		ttft, admitted := rep.TTFT[ev.Request.ID]
		missTTFT := !admitted || (ev.SLO.TTFT > 0 && ttft > ev.SLO.TTFT)
		missTPOT := ev.SLO.TPOT > 0 && genLen(ev.Request) > 1 && perStep > ev.SLO.TPOT
		if missTTFT {
			rep.SLOMissTTFT++
		}
		if missTPOT {
			rep.SLOMissTPOT++
		}
		if !missTTFT && !missTPOT {
			rep.SLOMet++
		}
	}
	return rep, nil
}
