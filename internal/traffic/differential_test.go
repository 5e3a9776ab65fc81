package traffic

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/faults"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// diffShape sets the wave shape both sides run on a scenario's policy:
// two micro-batches of up to two requests, 2 generated tokens, 32
// tokens of KV per micro-batch (so two 15-token prompts never share
// one, and a 31-token prompt fits nowhere).
func diffShape(p engine.ServeConfig) engine.ServeConfig {
	p.NumMicroBatches, p.MicroBatchSize, p.GenLen, p.CacheTokens = 2, 2, 2, 32
	return p
}

const diffMaxContext = 48

// diffScenario exercises one admission knob. groups[0] is a single
// request that opens wave 1; group g >= 1 arrives while wave g runs.
type diffScenario struct {
	name   string
	policy engine.ServeConfig
	groups [][]Event
}

// diffBoundary is one wave boundary's decisions as sorted request IDs.
type diffBoundary struct{ Admitted, Deferred, Failed []int }

func diffEvent(id, prompt int, ttft time.Duration) Event {
	return Event{Cohort: "diff", Request: workload.Request{ID: id, PromptLen: prompt, GenLen: 2}, SLO: SLO{TTFT: ttft}}
}

func diffScenarios() []diffScenario {
	opener := []Event{diffEvent(1, 4, 0)}
	ev := diffEvent
	h := time.Hour
	return []diffScenario{
		{name: "fifo", groups: [][]Event{opener,
			{ev(2, 10, 0), ev(3, 3, 0), ev(4, 12, 0), ev(5, 5, 0), ev(6, 8, 0), ev(7, 6, 0)},
			{ev(8, 9, 0), ev(9, 2, 0)},
		}},
		{name: "slo-order", policy: engine.ServeConfig{SLOAware: true, StarvationWaves: 1}, groups: [][]Event{opener,
			{ev(2, 6, 5*h), ev(3, 6, 0), ev(4, 6, h), ev(5, 6, 3*h), ev(6, 6, 2*h), ev(7, 6, 0)},
			{ev(8, 6, h/2), ev(9, 6, 4*h), ev(10, 6, 0), ev(11, 6, h/6)},
		}},
		{name: "max-queued-requests", policy: engine.ServeConfig{MaxQueuedRequests: 3}, groups: [][]Event{opener,
			{ev(2, 15, 0), ev(3, 15, 0), ev(4, 15, 0), ev(5, 15, 0), ev(6, 15, 0)},
			{ev(7, 15, 0), ev(8, 15, 0), ev(9, 15, 0)},
		}},
		{name: "max-queued-tokens", policy: engine.ServeConfig{MaxQueuedTokens: 40}, groups: [][]Event{opener,
			{ev(2, 15, 0), ev(3, 15, 0), ev(4, 15, 0), ev(5, 4, 0), ev(6, 1, 0)},
			{ev(7, 15, 0), ev(8, 15, 0), ev(9, 15, 0)},
		}},
		{name: "no-progress", groups: [][]Event{opener,
			{ev(2, 31, 0), ev(3, 5, 0)},
			{ev(4, 6, 0)},
		}},
		{name: "nothing-fits", groups: [][]Event{opener,
			{ev(2, 31, 0), ev(3, 5, 0)},
		}},
	}
}

// TestAdmissionLiveMatchesSimulator replays one trace per admission
// knob through the live server and through SimulateAdmission, and
// requires identical per-boundary admitted, deferred and failed request
// sets, and identical shed sets. Both sides call engine.CheckSubmit and
// engine.PlanWave; this test pins that nothing around those calls —
// queue order, deferral bookkeeping, key identity, the arrival/boundary
// interleaving — drifts between them.
func TestAdmissionLiveMatchesSimulator(t *testing.T) {
	for _, sc := range diffScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			liveBounds, liveShed := runLiveAdmission(t, sc)
			simBounds, simShed := runSimAdmission(t, sc)
			if !reflect.DeepEqual(liveBounds, simBounds) {
				t.Errorf("boundaries differ:\n live %+v\n sim  %+v", liveBounds, simBounds)
			}
			if !reflect.DeepEqual(liveShed, simShed) {
				t.Errorf("shed differs: live %v, sim %v", liveShed, simShed)
			}
			if len(liveBounds) < 2 {
				t.Errorf("only %d boundaries: the scenario exercised nothing", len(liveBounds))
			}
		})
	}
}

// runSimAdmission places group g's arrivals inside virtual wave g: with
// 1ns per prompt token and 1s per decode step, wave k spans about
// [2(k-1)s, 2k s), so group g arrives at (2g-1)s.
func runSimAdmission(t *testing.T, sc diffScenario) ([]diffBoundary, []int) {
	t.Helper()
	var tr Trace
	tr.Scenario = sc.name
	for g, group := range sc.groups {
		for _, ev := range group {
			if g > 0 {
				ev.At = time.Duration(2*g-1) * time.Second
			}
			tr.Events = append(tr.Events, ev)
		}
	}
	rep, err := SimulateAdmission(tr, SimConfig{
		Policy: diffShape(sc.policy), KVDim: model.Tiny().KVDim(),
		PerPromptToken: time.Nanosecond, PerDecodeStep: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bounds []diffBoundary
	for _, w := range rep.Waves {
		bounds = append(bounds, diffBoundary{sorted(w.Admitted), sorted(w.Deferred), sorted(w.Failed)})
	}
	return bounds, sorted(rep.Shed)
}

// runLiveAdmission drives a live server whose every wave parks at its
// stall points until the test resumes it. At the first stall of wave w
// the boundary that formed it is fully decided, so the handles' exported
// state (Wave, Err) reads it off; group w is then submitted one request
// at a time, so each arrival meets the queue the simulator's does.
func runLiveAdmission(t *testing.T, sc diffScenario) ([]diffBoundary, []int) {
	t.Helper()
	cfg := diffShape(sc.policy)
	m := model.Tiny()
	cpu, gpu, pinned, cache := engine.NewArenas(m, 0, cfg.NumMicroBatches*cfg.MicroBatchSize, diffMaxContext)
	w, err := engine.NewRandomWeights(cpu, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	stalls, resume := make(chan struct{}), make(chan struct{})
	open := make(chan struct{})
	close(open)
	cfg.MaxContext = diffMaxContext
	cfg.Faults = faults.New(faults.Config{
		StallEvery: 1,
		Gate:       open,
		OnStall:    func() { stalls <- struct{}{}; <-resume },
	})
	srv, err := engine.NewServer(w, gpu, pinned, cache, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var handles []*engine.Handle
	var shed []int
	submit := func(group []Event) {
		for _, ev := range group {
			h, err := srv.SubmitSLO(ev.Request, ev.SLO, nil)
			if errors.Is(err, engine.ErrOverloaded) {
				shed = append(shed, ev.Request.ID)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
	}
	// snapshot reads boundary w (0: the final drain) off the handles: the
	// requests in wave w, those still queued, and those failed without
	// running since the last snapshot.
	reported := make(map[*engine.Handle]bool)
	snapshot := func(wave int) diffBoundary {
		var b diffBoundary
		for _, h := range handles {
			switch hw := h.Wave(); {
			case hw != 0:
				if hw == wave {
					b.Admitted = append(b.Admitted, h.ID())
				}
			case h.Err() == nil:
				b.Deferred = append(b.Deferred, h.ID())
			case !reported[h]:
				reported[h] = true
				b.Failed = append(b.Failed, h.ID())
			}
		}
		return diffBoundary{sorted(b.Admitted), sorted(b.Deferred), sorted(b.Failed)}
	}

	var bounds []diffBoundary
	closed := make(chan error, 1)
	submit(sc.groups[0])
	next, seen := 1, 0
	for drained := false; !drained; {
		select {
		case <-stalls:
			wave := 0
			for _, h := range handles {
				wave = max(wave, h.Wave())
			}
			if wave > seen { // first stall of a new wave
				seen = wave
				bounds = append(bounds, snapshot(wave))
				if next < len(sc.groups) {
					submit(sc.groups[next])
					if next++; next == len(sc.groups) {
						go func() { closed <- srv.Close() }()
					}
				}
			}
			resume <- struct{}{}
		case <-closed:
			drained = true
		case <-time.After(30 * time.Second):
			t.Fatalf("no wave and no drain after boundary %d", seen)
		}
	}
	if b := snapshot(0); len(b.Failed) > 0 {
		bounds = append(bounds, b)
	}
	return bounds, sorted(shed)
}

func sorted(ids []int) []int {
	if len(ids) == 0 {
		return nil
	}
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}
