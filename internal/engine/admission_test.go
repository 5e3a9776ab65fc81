package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/workload"
)

// planBatch is a 1x2 wave with a 40-token budget: two 10-token prompts
// (plus 2 generated tokens each) fit together, a 40-token prompt never.
func planBatch() batching.Config {
	return batching.Config{NumMicroBatches: 1, MicroBatchSize: 2, GenLen: 2, CacheTokens: 40}
}

func planItem(key uint64, id, prompt int, submitted time.Time, ttft time.Duration) AdmissionItem {
	return AdmissionItem{
		Request:   workload.Request{ID: id, PromptLen: prompt},
		Submitted: submitted,
		SLO:       SLO{TTFT: ttft},
		Key:       key,
	}
}

func failedIndices(plan WavePlan) []int {
	var idx []int
	for _, f := range plan.Failed {
		idx = append(idx, f.Index)
	}
	return idx
}

// TestPlanWaveReapsExpiredTTFT: under EnforceDeadlines the reap is a
// function of the now argument alone. At now = submitted + budget the
// request is still admissible; one nanosecond later it fails with
// ErrDeadlineExceeded, before placement, and leaves room for the rest.
func TestPlanWaveReapsExpiredTTFT(t *testing.T) {
	base := time.Unix(100, 0)
	items := []AdmissionItem{
		planItem(1, 7, 10, base, 50*time.Millisecond),
		planItem(2, 8, 10, base, 0),
		planItem(3, 9, 10, base, 0),
	}
	cfg := ServeConfig{EnforceDeadlines: true}

	onTime := PlanWave(items, base.Add(50*time.Millisecond), nil, cfg, planBatch())
	if len(onTime.Failed) != 0 || !reflect.DeepEqual(onTime.MicroBatches, [][]int{{0, 1}}) {
		t.Fatalf("at the deadline: admitted %v failed %v, want [[0 1]] and none", onTime.MicroBatches, failedIndices(onTime))
	}

	late := PlanWave(items, base.Add(50*time.Millisecond+time.Nanosecond), nil, cfg, planBatch())
	if got := failedIndices(late); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("past the deadline: failed %v, want [0]", got)
	}
	if err := late.Failed[0].Err; !errors.Is(err, ErrDeadlineExceeded) || !strings.Contains(err.Error(), "request 7") {
		t.Errorf("reap error %v: want ErrDeadlineExceeded naming request 7", err)
	}
	if !reflect.DeepEqual(late.MicroBatches, [][]int{{1, 2}}) || len(late.Deferred) != 0 {
		t.Errorf("past the deadline: admitted %v deferred %v, want [[1 2]] and none", late.MicroBatches, late.Deferred)
	}

	// Without EnforceDeadlines the same clock reaps nothing.
	lax := PlanWave(items, base.Add(time.Hour), nil, ServeConfig{}, planBatch())
	if len(lax.Failed) != 0 {
		t.Errorf("deadlines not enforced, yet failed %v", failedIndices(lax))
	}
}

// TestPlanWaveSlackOrder: under SLOAware the queue is placed most
// urgent first, so the slack-rich request is the one deferred; without
// it, Alg. 2's length sort keeps queue order among equal prompts.
func TestPlanWaveSlackOrder(t *testing.T) {
	base := time.Unix(100, 0)
	items := []AdmissionItem{
		planItem(1, 1, 10, base, time.Second),
		planItem(2, 2, 10, base, 0),
		planItem(3, 3, 10, base, 100*time.Millisecond),
	}
	plan := PlanWave(items, base, nil, ServeConfig{SLOAware: true}, planBatch())
	if !reflect.DeepEqual(plan.MicroBatches, [][]int{{2, 0}}) || !reflect.DeepEqual(plan.Deferred, []int{1}) {
		t.Fatalf("slack plan: admitted %v deferred %v, want [[2 0]] and [1]", plan.MicroBatches, plan.Deferred)
	}
	fifo := PlanWave(items, base, nil, ServeConfig{}, planBatch())
	if !reflect.DeepEqual(fifo.MicroBatches, [][]int{{0, 1}}) || !reflect.DeepEqual(fifo.Deferred, []int{2}) {
		t.Fatalf("fifo plan: admitted %v deferred %v, want [[0 1]] and [2]", fifo.MicroBatches, fifo.Deferred)
	}
}

// TestPlanWaveNoProgressByKey: the no-progress rule compares submission
// keys, not request IDs. A request deferred at two boundaries running
// fails with ErrNoProgress; a different submission of the same ID does
// not.
func TestPlanWaveNoProgressByKey(t *testing.T) {
	base := time.Unix(100, 0)
	big := planItem(1, 5, 30, base, 0) // fits alone, never beside a 10-token prompt
	first := PlanWave([]AdmissionItem{planItem(2, 6, 10, base, 0), big}, base, nil, ServeConfig{}, planBatch())
	if !reflect.DeepEqual(first.Deferred, []int{0}) || !reflect.DeepEqual(first.DeferredKeys, []uint64{2}) {
		t.Fatalf("first boundary deferred %v keys %v, want [0] and [2]", first.Deferred, first.DeferredKeys)
	}

	// Same ID 6, new submission (key 3): progress, not starvation.
	again := PlanWave([]AdmissionItem{planItem(3, 6, 10, base, 0), big}, base, first.DeferredKeys, ServeConfig{}, planBatch())
	if len(again.Failed) != 0 || !reflect.DeepEqual(again.DeferredKeys, []uint64{3}) {
		t.Fatalf("duplicate ID, new key: failed %v keys %v, want none and [3]", failedIndices(again), again.DeferredKeys)
	}

	// The same submission passed over again: starved.
	stuck := PlanWave([]AdmissionItem{planItem(3, 6, 10, base, 0), planItem(4, 9, 30, base, 0)}, base, again.DeferredKeys, ServeConfig{}, planBatch())
	if got := failedIndices(stuck); !reflect.DeepEqual(got, []int{0}) || !errors.Is(stuck.Failed[0].Err, ErrNoProgress) {
		t.Fatalf("starved submission: failed %v (%v), want [0] with ErrNoProgress", got, stuck.Failed)
	}
	if len(stuck.Deferred) != 0 || stuck.DeferredKeys != nil || !reflect.DeepEqual(stuck.MicroBatches, [][]int{{1}}) {
		t.Errorf("starved boundary: admitted %v deferred %v keys %v", stuck.MicroBatches, stuck.Deferred, stuck.DeferredKeys)
	}
}

// TestPlanWaveNothingFits: a queue no micro-batch can hold fails whole,
// each candidate with ErrNothingFits naming the request.
func TestPlanWaveNothingFits(t *testing.T) {
	base := time.Unix(100, 0)
	plan := PlanWave([]AdmissionItem{planItem(1, 4, 40, base, 0)}, base, nil, ServeConfig{}, planBatch())
	if got := failedIndices(plan); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("failed %v, want [0]", got)
	}
	if err := plan.Failed[0].Err; !errors.Is(err, ErrNothingFits) || !strings.Contains(err.Error(), "id 4") {
		t.Errorf("error %v: want ErrNothingFits naming id 4", err)
	}
	if plan.MicroBatches != nil || plan.Deferred != nil {
		t.Errorf("nothing fits, yet admitted %v deferred %v", plan.MicroBatches, plan.Deferred)
	}
}

// TestCheckSubmitSLOAwareShed: the projected-drain shed is a function
// of the rate argument. A batch sheds only when the queue's drain time
// at that rate exceeds every TTFT budget it carries; an unmeasured rate
// or a budget-free request never sheds.
func TestCheckSubmitSLOAwareShed(t *testing.T) {
	cfg := ServeConfig{SLOAwareShed: true}
	tight := []Demand{{ID: 1, Tokens: 100, TTFT: time.Second}}
	// 900 queued + 100 new tokens at 1000 tok/s drain in exactly 1s.
	if err := CheckSubmit(cfg, 3, 900, tight, 1000); err != nil {
		t.Errorf("drain equal to the budget shed: %v", err)
	}
	err := CheckSubmit(cfg, 3, 900, tight, 999)
	if !errors.Is(err, ErrOverloaded) || !strings.Contains(err.Error(), "id 1") {
		t.Errorf("drain past the budget: want ErrOverloaded naming id 1, got %v", err)
	}
	if err := CheckSubmit(cfg, 3, 900, tight, 0); err != nil {
		t.Errorf("unmeasured rate shed: %v", err)
	}
	mixed := append(tight, Demand{ID: 2, Tokens: 10})
	if err := CheckSubmit(cfg, 3, 900, mixed, 10); err != nil {
		t.Errorf("batch with a budget-free request shed: %v", err)
	}
	if err := CheckSubmit(ServeConfig{}, 3, 900, tight, 1); err != nil {
		t.Errorf("shedding off, yet shed: %v", err)
	}
}

// TestCheckSubmitBounds: the hard bounds count the whole batch against
// the queue and name the bound that refused it.
func TestCheckSubmitBounds(t *testing.T) {
	batch := []Demand{{ID: 1, Tokens: 6}, {ID: 2, Tokens: 6}}
	if err := CheckSubmit(ServeConfig{MaxQueuedRequests: 3}, 1, 0, batch, 0); err != nil {
		t.Errorf("1 queued + 2 within a bound of 3: %v", err)
	}
	if err := CheckSubmit(ServeConfig{MaxQueuedRequests: 3}, 2, 0, batch, 0); !errors.Is(err, ErrOverloaded) ||
		!strings.Contains(err.Error(), "MaxQueuedRequests") {
		t.Errorf("2 queued + 2 past a bound of 3: %v", err)
	}
	if err := CheckSubmit(ServeConfig{MaxQueuedTokens: 20}, 0, 8, batch, 0); err != nil {
		t.Errorf("8 queued + 12 tokens within 20: %v", err)
	}
	if err := CheckSubmit(ServeConfig{MaxQueuedTokens: 20}, 0, 9, batch, 0); !errors.Is(err, ErrOverloaded) ||
		!strings.Contains(err.Error(), "MaxQueuedTokens") {
		t.Errorf("9 queued + 12 tokens past 20: %v", err)
	}
}
