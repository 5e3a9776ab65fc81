package traffic

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/kvcache"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// simShape sets the simulator tests' wave shape on an admission policy:
// two micro-batches of up to two requests, 8 generated tokens, 128
// tokens of KV per micro-batch.
func simShape(p engine.ServeConfig) engine.ServeConfig {
	p.NumMicroBatches, p.MicroBatchSize, p.GenLen, p.CacheTokens = 2, 2, 8, 128
	return p
}

// TestSimulateDeterministic: the same seed yields identical admitted
// waves, under both policies — the trace-to-waves path is a pure
// function.
func TestSimulateDeterministic(t *testing.T) {
	scn := BurstyMix(15, 80)
	for _, policy := range []engine.ServeConfig{{}, {SLOAware: true}} {
		tr1, err := scn.Generate(2024)
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := scn.Generate(2024)
		if err != nil {
			t.Fatal(err)
		}
		cfg := SimConfig{Policy: simShape(policy)}
		a, err := SimulateAdmission(tr1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SimulateAdmission(tr2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Waves, b.Waves) {
			t.Errorf("SLOAware=%v: same seed produced different admitted waves", policy.SLOAware)
		}
		if !reflect.DeepEqual(a.TTFT, b.TTFT) {
			t.Errorf("SLOAware=%v: same seed produced different TTFTs", policy.SLOAware)
		}
	}
}

// TestSlackBeatsFIFOOnBurstyMix is the PR's core claim: on the bursty
// mixed-SLO scenario, deadline-slack admission misses fewer TTFT
// targets than the classic length-sorted FIFO pass. FIFO's length-
// descending sort places long summarize/RAG prompts first when a burst
// piles the queue up, so tight-deadline chat/agentic requests defer
// exactly when they can least afford it; slack ordering admits them
// first instead.
func TestSlackBeatsFIFOOnBurstyMix(t *testing.T) {
	// PerDecodeStep 10ms puts the 2x2 wave's capacity just under the
	// bursty mix's burst-state rate: transiently overloaded, the regime
	// where admission order decides outcomes. (Far below, every policy
	// meets every target; far above, every policy drowns.)
	scn := BurstyMix(15, 150)
	tr, err := scn.Generate(2024)
	if err != nil {
		t.Fatal(err)
	}
	step := 10 * time.Millisecond
	fifo, err := SimulateAdmission(tr, SimConfig{Policy: simShape(engine.ServeConfig{}), PerDecodeStep: step})
	if err != nil {
		t.Fatal(err)
	}
	slack, err := SimulateAdmission(tr, SimConfig{Policy: simShape(engine.ServeConfig{SLOAware: true}), PerDecodeStep: step})
	if err != nil {
		t.Fatal(err)
	}
	if fifo.SLORequests != slack.SLORequests || fifo.SLORequests == 0 {
		t.Fatalf("SLO populations differ: fifo %d, slack %d", fifo.SLORequests, slack.SLORequests)
	}
	t.Logf("fifo: met %d/%d (ttft misses %d), slack: met %d/%d (ttft misses %d)",
		fifo.SLOMet, fifo.SLORequests, fifo.SLOMissTTFT,
		slack.SLOMet, slack.SLORequests, slack.SLOMissTTFT)
	if slack.SLOMissTTFT >= fifo.SLOMissTTFT {
		t.Errorf("slack admission did not reduce TTFT misses: fifo %d, slack %d",
			fifo.SLOMissTTFT, slack.SLOMissTTFT)
	}
	if slack.SLOMet <= fifo.SLOMet {
		t.Errorf("slack admission did not improve SLO attainment: fifo %d, slack %d",
			fifo.SLOMet, slack.SLOMet)
	}
}

// TestSimStarvationBound: under slack admission, no request defers more
// than the starvation bound plus the waves it takes to drain — in
// particular a deadline-free request cannot be deferred indefinitely by
// a stream of urgent ones.
func TestSimStarvationBound(t *testing.T) {
	// One long, deadline-free request arrives first; a steady stream of
	// tight-deadline short requests follows. Under pure slack ordering
	// the long request would always sort last; the starvation bound must
	// promote it.
	events := []Event{{At: 0, Cohort: "batch", Request: workload.Request{ID: 1, PromptLen: 40, GenLen: 8}}}
	for i := 0; i < 40; i++ {
		events = append(events, Event{
			At:      time.Duration(i) * 10 * time.Millisecond,
			Cohort:  "chat",
			Request: workload.Request{ID: 2 + i, PromptLen: 6, GenLen: 8},
			SLO:     SLO{TTFT: 50 * time.Millisecond},
		})
	}
	tr := Trace{Scenario: "starvation", Seed: 1, Events: events}
	const bound = 3
	rep, err := SimulateAdmission(tr, SimConfig{
		Policy: simShape(engine.ServeConfig{SLOAware: true, StarvationWaves: bound}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.TTFT[1]; !ok {
		t.Fatal("deadline-free request was never admitted")
	}
	if len(rep.Dropped) != 0 {
		t.Fatalf("no-progress guard fired: dropped %v", rep.Dropped)
	}
	if rep.MaxDeferrals > bound {
		t.Errorf("request deferred %d times, starvation bound is %d", rep.MaxDeferrals, bound)
	}
}

// TestSimMatchesEngineOrdering: the simulator's slack path uses the
// engine's AdmissionOrder verbatim — spot-check that a queue's first
// simulated admit is the engine's most urgent item.
func TestSimMatchesEngineOrdering(t *testing.T) {
	base := time.Unix(0, 0)
	events := []Event{
		{At: 0, Cohort: "a", Request: workload.Request{ID: 1, PromptLen: 8, GenLen: 4}, SLO: SLO{TTFT: time.Second}},
		{At: 0, Cohort: "b", Request: workload.Request{ID: 2, PromptLen: 8, GenLen: 4}, SLO: SLO{TTFT: 100 * time.Millisecond}},
		{At: 0, Cohort: "c", Request: workload.Request{ID: 3, PromptLen: 8, GenLen: 4}},
	}
	items := make([]engine.AdmissionItem, len(events))
	for i, ev := range events {
		items[i] = engine.AdmissionItem{Submitted: base.Add(ev.At), SLO: ev.SLO}
	}
	order := engine.AdmissionOrder(items, base, 0)
	if events[order[0]].Request.ID != 2 {
		t.Fatalf("engine ordering puts ID %d first, want the 100ms-TTFT request", events[order[0]].Request.ID)
	}
	rep, err := SimulateAdmission(Trace{Scenario: "x", Events: events}, SimConfig{
		Policy: engine.ServeConfig{NumMicroBatches: 1, MicroBatchSize: 1, GenLen: 4, CacheTokens: 64, SLOAware: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Waves) == 0 || len(rep.Waves[0].Admitted) == 0 || rep.Waves[0].Admitted[0] != 2 {
		t.Fatalf("first simulated admit %v, want request 2", rep.Waves)
	}
}

// p95TTFT is the 95th-percentile TTFT over a report's admitted
// requests (sorted nearest-rank on the deterministic simulated values).
func p95TTFT(t *testing.T, rep SimReport) time.Duration {
	t.Helper()
	if len(rep.TTFT) == 0 {
		t.Fatal("no admitted requests to take a percentile over")
	}
	vals := make([]time.Duration, 0, len(rep.TTFT))
	for _, d := range rep.TTFT {
		vals = append(vals, d)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[int(0.95*float64(len(vals)-1))]
}

// TestSimOverloadShedBoundsAdmittedTTFT is the overload-control
// acceptance criterion on the deterministic virtual clock: at 2x the
// knee arrival rate, a MaxQueuedRequests bound sheds load — and the
// requests it does admit keep a p95 TTFT within 3x of the at-knee p95,
// where the unbounded queue lets admitted latency grow without limit.
func TestSimOverloadShedBoundsAdmittedTTFT(t *testing.T) {
	// PerDecodeStep 10ms puts the 2x2 wave's service rate at the bursty
	// mix's knee for kneeRPS (same calibration as the slack-vs-FIFO
	// test); doubling the arrival rate is then genuine 2x overload.
	const kneeRPS, n = 15, 150
	step := 10 * time.Millisecond
	atKnee, err := BurstyMix(kneeRPS, n).Generate(2024)
	if err != nil {
		t.Fatal(err)
	}
	overload, err := BurstyMix(2*kneeRPS, n).Generate(2024)
	if err != nil {
		t.Fatal(err)
	}
	base := SimConfig{Policy: simShape(engine.ServeConfig{SLOAware: true}), PerDecodeStep: step}
	knee, err := SimulateAdmission(atKnee, base)
	if err != nil {
		t.Fatal(err)
	}
	bounded := base
	bounded.Policy.MaxQueuedRequests = 8
	shedding, err := SimulateAdmission(overload, bounded)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := SimulateAdmission(overload, base)
	if err != nil {
		t.Fatal(err)
	}

	if len(shedding.Shed) == 0 {
		t.Fatal("2x-knee load with a bounded queue shed nothing")
	}
	if len(unbounded.Shed) != 0 {
		t.Fatalf("unbounded queue shed %d requests", len(unbounded.Shed))
	}
	// Every request is accounted for: admitted, shed, or dropped by the
	// no-progress guard.
	if got := len(shedding.TTFT) + len(shedding.Shed) + len(shedding.Dropped); got != n {
		t.Errorf("dispositions leak: %d admitted + %d shed + %d dropped != %d",
			len(shedding.TTFT), len(shedding.Shed), len(shedding.Dropped), n)
	}
	pKnee := p95TTFT(t, knee)
	pShed := p95TTFT(t, shedding)
	pOpen := p95TTFT(t, unbounded)
	t.Logf("p95 TTFT: at knee %v, 2x bounded %v (%d shed), 2x unbounded %v",
		pKnee, pShed, len(shedding.Shed), pOpen)
	if pShed > 3*pKnee {
		t.Errorf("bounded-queue admitted p95 TTFT %v exceeds 3x the at-knee p95 %v", pShed, pKnee)
	}
	if pShed >= pOpen {
		t.Errorf("shedding did not improve admitted p95 TTFT: bounded %v, unbounded %v", pShed, pOpen)
	}
}

// TestSimShedsAtTokenBound: the simulator honors the server's
// MaxQueuedTokens. While the first wave runs, arrivals queue until the
// next one would push the queued prompt+generation tokens past the
// bound; that one is shed, and a later, smaller arrival still fits.
func TestSimShedsAtTokenBound(t *testing.T) {
	ms := time.Millisecond
	req := func(id, prompt int) workload.Request { return workload.Request{ID: id, PromptLen: prompt, GenLen: 8} }
	tr := Trace{Scenario: "token-bound", Events: []Event{
		{At: 0, Cohort: "a", Request: req(1, 10)},  // runs wave 1 alone
		{At: ms, Cohort: "a", Request: req(2, 10)}, // queued: 18 tokens
		{At: ms, Cohort: "a", Request: req(3, 10)}, // 36
		{At: ms, Cohort: "a", Request: req(4, 10)}, // 54 > 45: shed
		{At: ms, Cohort: "a", Request: req(5, 1)},  // 45: fits
	}}
	rep, err := SimulateAdmission(tr, SimConfig{Policy: simShape(engine.ServeConfig{MaxQueuedTokens: 45})})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Shed, []int{4}) {
		t.Fatalf("shed %v, want [4]", rep.Shed)
	}
	if len(rep.Dropped) != 0 || len(rep.TTFT) != 4 {
		t.Errorf("dropped %v, admitted %d: want none dropped and the other 4 admitted", rep.Dropped, len(rep.TTFT))
	}
	unbounded, err := SimulateAdmission(tr, SimConfig{Policy: simShape(engine.ServeConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	if len(unbounded.Shed) != 0 {
		t.Errorf("no token bound, yet shed %v", unbounded.Shed)
	}
}

// TestSimEnforceDeadlinesReapsExpired: under EnforceDeadlines a request
// whose TTFT budget runs out while it waits behind a wave fails at the
// next boundary, before it gets a wave; its wave-mate with room to
// spare is admitted. Without the knob the expired request is admitted
// late and merely misses its SLO.
func TestSimEnforceDeadlinesReapsExpired(t *testing.T) {
	ms := time.Millisecond
	req := func(id int) workload.Request { return workload.Request{ID: id, PromptLen: 10, GenLen: 8} }
	// Wave 1 runs request 1 over [0, 17ms): 1ms prefill + 8 x 2ms decode.
	tr := Trace{Scenario: "deadline", Events: []Event{
		{At: 0, Cohort: "a", Request: req(1)},
		{At: ms, Cohort: "a", Request: req(2), SLO: SLO{TTFT: 5 * ms}},
		{At: ms, Cohort: "a", Request: req(3), SLO: SLO{TTFT: time.Second}},
	}}
	rep, err := SimulateAdmission(tr, SimConfig{Policy: simShape(engine.ServeConfig{EnforceDeadlines: true})})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Waves) != 2 || !reflect.DeepEqual(rep.Waves[1].Failed, []int{2}) || !reflect.DeepEqual(rep.Waves[1].Admitted, []int{3}) {
		t.Fatalf("waves %+v: want request 2 failed and request 3 admitted at the second boundary", rep.Waves)
	}
	if _, ok := rep.TTFT[2]; ok || !reflect.DeepEqual(rep.Dropped, []int{2}) {
		t.Errorf("request 2 got a wave or was not dropped: TTFT %v, dropped %v", rep.TTFT, rep.Dropped)
	}
	if rep.SLORequests != 2 || rep.SLOMissTTFT != 1 || rep.SLOMet != 1 {
		t.Errorf("SLO accounting %d/%d met, %d TTFT misses: want 1/2 and 1", rep.SLOMet, rep.SLORequests, rep.SLOMissTTFT)
	}
	lax, err := SimulateAdmission(tr, SimConfig{Policy: simShape(engine.ServeConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lax.TTFT[2]; !ok || len(lax.Dropped) != 0 {
		t.Errorf("deadlines not enforced: request 2 should be admitted late, TTFT %v dropped %v", lax.TTFT, lax.Dropped)
	}
}

// TestSimSLOAwareShedUsesFinishedWaves: under SLOAwareShed the
// simulator projects the queue drain at the generation rate of the
// waves finished when a request arrives, as the live server measures
// it. Request 2 arrives during wave 1, before any rate exists, so it
// queues although its 1ms budget is hopeless; request 3 arrives during
// wave 2 with the same budget and is shed at wave 1's rate, while
// request 4, arriving with it under an ample budget, still queues.
func TestSimSLOAwareShedUsesFinishedWaves(t *testing.T) {
	ms := time.Millisecond
	req := func(id int) workload.Request { return workload.Request{ID: id, PromptLen: 10, GenLen: 8} }
	// Wave 1 runs request 1 over [0, 17ms): 1ms prefill + 8 x 2ms
	// decode, so 8 tokens in 17ms (~470 tok/s). Wave 2 runs request 2
	// over [17ms, 34ms). Request 3's projected drain is its own 18
	// tokens at that rate, ~38ms.
	tr := Trace{Scenario: "slo-shed", Events: []Event{
		{At: 0, Cohort: "a", Request: req(1)},
		{At: ms, Cohort: "a", Request: req(2), SLO: SLO{TTFT: ms}},
		{At: 20 * ms, Cohort: "a", Request: req(3), SLO: SLO{TTFT: ms}},
		{At: 20 * ms, Cohort: "a", Request: req(4), SLO: SLO{TTFT: time.Second}},
	}}
	rep, err := SimulateAdmission(tr, SimConfig{Policy: simShape(engine.ServeConfig{SLOAwareShed: true})})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Shed, []int{3}) {
		t.Fatalf("shed %v, want [3]: only the hopeless arrival after wave 1 finished", rep.Shed)
	}
	for _, id := range []int{1, 2, 4} {
		if _, ok := rep.TTFT[id]; !ok {
			t.Errorf("request %d was not admitted", id)
		}
	}
	off, err := SimulateAdmission(tr, SimConfig{Policy: simShape(engine.ServeConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Shed) != 0 {
		t.Errorf("SLOAwareShed off, yet shed %v", off.Shed)
	}
}

// TestSimBudgetsKVLikeTheServer: the simulator prices KV through
// engine.BatchConfig, as the live server does, so an int8 KV codec
// admits the wave a float32 codec must split: two 68-token requests
// overflow a 128-token micro-batch at 4 bytes per value, not at 1.
func TestSimBudgetsKVLikeTheServer(t *testing.T) {
	var events []Event
	for id := 1; id <= 4; id++ {
		events = append(events, Event{Cohort: "a", Request: workload.Request{ID: id, PromptLen: 60, GenLen: 8}})
	}
	tr := Trace{Scenario: "kv-budget", Events: events}
	kvDim := model.Tiny().KVDim()
	for _, tc := range []struct {
		dtype kvcache.DType
		want  int
	}{{kvcache.F32, 2}, {kvcache.Int8, 4}} {
		rep, err := SimulateAdmission(tr, SimConfig{Policy: simShape(engine.ServeConfig{KVDtype: tc.dtype}), KVDim: kvDim})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(rep.Waves[0].Admitted); got != tc.want {
			t.Errorf("KV codec %v: first wave admitted %d, want %d", tc.dtype, got, tc.want)
		}
	}
}
