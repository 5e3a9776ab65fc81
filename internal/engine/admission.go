package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/workload"
)

// SLO is a request's latency service-level objective: a time-to-first-
// token budget measured from submission, and a time-per-output-token
// budget over the decode steps after the first. A zero field means "no
// target" for that dimension; the zero SLO opts the request out of SLO
// accounting entirely.
type SLO struct {
	TTFT time.Duration `json:"ttft_ns"`
	TPOT time.Duration `json:"tpot_ns"`
}

// IsZero reports whether the SLO carries no targets.
func (s SLO) IsZero() bool { return s.TTFT == 0 && s.TPOT == 0 }

// DefaultStarvationWaves is how many consecutive deferrals promote a
// request to the front of the slack-ordered admission queue when
// ServeConfig.StarvationWaves is unset. Together with BatchOrdered's
// place-first-request-first behavior it bounds starvation: a request
// deferred this many times is the first dealt to an empty micro-batch
// at the next wave boundary, so it is admitted then unless it can fit
// no micro-batch at all (which fails it outright instead).
const DefaultStarvationWaves = 3

// ErrNothingFits reports a wave boundary at which no queued request
// fits any micro-batch: the whole queue fails instead of looping.
var ErrNothingFits = errors.New("engine: no request fits any micro-batch")

// AdmissionItem is one queued request at a wave boundary, the input of
// AdmissionOrder and PlanWave. The live server builds one per pending
// handle; the traffic package's virtual-time simulator builds the same
// items from a trace, so both decide every boundary with the same code.
type AdmissionItem struct {
	// Request is the queued request.
	Request workload.Request
	// Submitted is when the request entered the queue.
	Submitted time.Time
	// SLO carries the request's latency targets; a zero SLO sorts after
	// every deadline-bearing request (it has infinite slack).
	SLO SLO
	// Deferrals counts how many wave boundaries have already passed the
	// request over.
	Deferrals int
	// Key identifies the submission. It is unique even where request IDs
	// repeat, and it is what the no-progress rule compares.
	Key uint64
}

// slack is the time remaining until the request's TTFT deadline: the
// smaller it is (negative = already blown), the more urgent admission
// is. Requests without a TTFT target report the maximum duration.
func (it AdmissionItem) slack(now time.Time) time.Duration {
	if it.SLO.TTFT <= 0 {
		return time.Duration(1<<63 - 1)
	}
	return it.Submitted.Add(it.SLO.TTFT).Sub(now)
}

// AdmissionOrder returns the deadline-slack admission order as a
// permutation of item indices, most urgent first:
//
//  1. starved requests (Deferrals >= starvationWaves, the bound that
//     replaces FIFO's implicit fairness), longest-deferred first;
//  2. everything else by ascending TTFT slack at now — requests without
//     a TTFT target have infinite slack and sort last, among themselves
//     in FIFO (submission) order.
//
// Ties break by submission time, then by input index, so the order is
// deterministic for any input.
func AdmissionOrder(items []AdmissionItem, now time.Time, starvationWaves int) []int {
	if starvationWaves <= 0 {
		starvationWaves = DefaultStarvationWaves
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := items[order[a]], items[order[b]]
		sa, sb := ia.Deferrals >= starvationWaves, ib.Deferrals >= starvationWaves
		if sa != sb {
			return sa
		}
		if sa { // both starved: longest wait first
			if ia.Deferrals != ib.Deferrals {
				return ia.Deferrals > ib.Deferrals
			}
			return ia.Submitted.Before(ib.Submitted)
		}
		ka, kb := ia.slack(now), ib.slack(now)
		if ka != kb {
			return ka < kb
		}
		return ia.Submitted.Before(ib.Submitted)
	})
	return order
}

// Demand is what one submitted request asks of the admission queue.
type Demand struct {
	ID int
	// Tokens is prompt plus effective generation tokens: the weight
	// MaxQueuedTokens bounds.
	Tokens int
	// TTFT is the request's TTFT budget; 0 means none.
	TTFT time.Duration
}

// CheckSubmit is the overload-control gate a batch passes to enter a
// queue already holding queuedReqs requests of queuedTokens tokens. It
// rejects the batch with ErrOverloaded when admitting it would exceed
// MaxQueuedRequests or MaxQueuedTokens, or — under SLOAwareShed, once
// rate (generated tokens per busy second, 0 while unmeasured) is known —
// when the projected queue drain already exceeds every TTFT budget in
// the batch (a request without a budget never sheds this way).
func CheckSubmit(cfg ServeConfig, queuedReqs, queuedTokens int, batch []Demand, rate float64) error {
	if n := cfg.MaxQueuedRequests; n > 0 && queuedReqs+len(batch) > n {
		return fmt.Errorf("%w: %d queued requests + %s exceed MaxQueuedRequests %d",
			ErrOverloaded, queuedReqs, describe(batch), n)
	}
	tok := 0
	for _, d := range batch {
		tok += d.Tokens
	}
	if n := cfg.MaxQueuedTokens; n > 0 && queuedTokens+tok > n {
		return fmt.Errorf("%w: %d queued tokens + %s exceed MaxQueuedTokens %d",
			ErrOverloaded, queuedTokens, describe(batch), n)
	}
	if !cfg.SLOAwareShed || rate <= 0 {
		return nil
	}
	drain := time.Duration(float64(queuedTokens+tok) / rate * float64(time.Second))
	for _, d := range batch {
		if d.TTFT <= 0 || drain <= d.TTFT {
			return nil
		}
	}
	return fmt.Errorf("%w: projected queue drain %v (%.0f tok/s over %d queued tokens) exceeds every TTFT budget of %s",
		ErrOverloaded, drain.Round(time.Millisecond), rate, queuedTokens+tok, describe(batch))
}

// describe names a request group and its token demands for admission
// diagnostics: enough to tell WHICH requests were refused and what they
// asked for.
func describe(ds []Demand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d request(s):", len(ds))
	for i, d := range ds {
		if i == 8 {
			fmt.Fprintf(&b, " …(+%d more)", len(ds)-i)
			break
		}
		fmt.Fprintf(&b, " id %d (%d tokens)", d.ID, d.Tokens)
	}
	return b.String()
}

// Failure is a candidate failed at a wave boundary, with its reason:
// ErrDeadlineExceeded, ErrNothingFits, ErrNoProgress, or the batcher's
// configuration error.
type Failure struct {
	Index int
	Err   error
}

// WavePlan is one wave-boundary admission decision, in candidate
// indices. Every candidate is in exactly one of its three lists.
type WavePlan struct {
	// MicroBatches holds the admitted candidates, one slice per
	// micro-batch, in placement order.
	MicroBatches [][]int
	// Deferred lists the candidates passed over to the next boundary in
	// queue order; DeferredKeys are their keys, the next boundary's
	// prevDeferred.
	Deferred     []int
	DeferredKeys []uint64
	Failed       []Failure
}

// PlanWave is the wave-boundary admission policy, a pure function of
// its inputs (the clock enters only as now):
//
//  1. under EnforceDeadlines, a candidate whose TTFT budget expired in
//     the queue fails with ErrDeadlineExceeded before any prefill;
//  2. the rest is placed by Alg. 2 — batching.BatchOrdered over
//     AdmissionOrder under SLOAware, else batching.Batch's length sort;
//  3. if nothing is placed, every remaining candidate fails with
//     ErrNothingFits;
//  4. if the deferred keys equal prevDeferred, the batcher passed over
//     the same submissions two boundaries running: they are starved and
//     fail with ErrNoProgress instead of deferring forever.
func PlanWave(items []AdmissionItem, now time.Time, prevDeferred []uint64, cfg ServeConfig, bc batching.Config) WavePlan {
	var plan WavePlan
	fail := func(idx []int, reason error) {
		ds := make([]Demand, len(idx))
		for j, i := range idx {
			ds[j] = Demand{ID: items[i].Request.ID, Tokens: items[i].Request.PromptLen + EffGenLen(cfg, items[i].Request)}
		}
		err := fmt.Errorf("%w: %s", reason, describe(ds))
		for _, i := range idx {
			plan.Failed = append(plan.Failed, Failure{Index: i, Err: err})
		}
	}
	var live []int
	var liveItems []AdmissionItem
	for i, it := range items {
		if waited := now.Sub(it.Submitted); cfg.EnforceDeadlines && it.SLO.TTFT > 0 && waited > it.SLO.TTFT {
			plan.Failed = append(plan.Failed, Failure{Index: i, Err: fmt.Errorf(
				"engine: request %d: TTFT deadline (%v) passed after %v in queue: %w",
				it.Request.ID, it.SLO.TTFT, waited.Round(time.Microsecond), ErrDeadlineExceeded)})
			continue
		}
		live = append(live, i)
		liveItems = append(liveItems, it)
	}
	if len(live) == 0 {
		return plan
	}
	order, place := live, batching.Batch
	if cfg.SLOAware {
		// Deadline-slack admission: most urgent first, placed in that
		// order, so when capacity runs out the slack-rich requests defer.
		order, place = make([]int, len(live)), batching.BatchOrdered
		for j, k := range AdmissionOrder(liveItems, now, cfg.StarvationWaves) {
			order[j] = live[k]
		}
	}
	// The batcher sees each request under its candidate index as ID, so
	// its placement maps straight back to candidates (IDs may repeat).
	reqs := make([]workload.Request, len(order))
	for j, i := range order {
		reqs[j] = items[i].Request
		reqs[j].ID = i
	}
	mbs, aborted, err := place(reqs, bc)
	if err == nil && len(mbs) == 0 {
		err = ErrNothingFits
	}
	if err != nil {
		fail(live, err)
		return plan
	}
	for _, mb := range mbs {
		group := make([]int, len(mb.Requests))
		for j, r := range mb.Requests {
			group[j] = r.ID
		}
		plan.MicroBatches = append(plan.MicroBatches, group)
	}
	for _, r := range aborted {
		plan.Deferred = append(plan.Deferred, r.ID)
	}
	sort.Ints(plan.Deferred)
	var keys []uint64
	for _, i := range plan.Deferred {
		keys = append(keys, items[i].Key)
	}
	if sameKeys(keys, prevDeferred) {
		fail(plan.Deferred, ErrNoProgress)
		plan.Deferred = nil
		return plan
	}
	plan.DeferredKeys = keys
	return plan
}

// sameKeys reports whether two non-empty key sets are equal.
func sameKeys(a, b []uint64) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	set := make(map[uint64]bool, len(b))
	for _, k := range b {
		set[k] = true
	}
	for _, k := range a {
		if !set[k] {
			return false
		}
	}
	return true
}
