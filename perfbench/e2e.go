package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"moelightning"
)

const (
	// setupBuilds is how many servers a run builds to time set-up.
	setupBuilds = 15
	// sampleStride and maxSamples pick the fixed sample of requests
	// checked against the reference: every sampleStride-th request of
	// a run's timed phases, up to maxSamples in all.
	sampleStride = 37
	maxSamples   = 8
	// minReps is the fewest timed repetitions a run makes,
	// however short --seconds is.
	minReps = 5
	// handleTimeout bounds the wait for any request to terminate.
	handleTimeout = 60 * time.Second
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is a request whose output is compared with the reference.
type sample struct {
	req moelightning.Request
	got []int
}

// runResult is everything a run measured and checked.
type runResult struct {
	metrics   []metric
	attempted int
	failed    int
	// unterminated counts handles that did not finish in time; broken
	// lists violated serving invariants (wave errors, KV leaks, fault
	// retries). Either makes the run incorrect.
	unterminated int
	broken       []string
	samples      []sample
	notes        []string
}

func (r *runResult) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit})
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally counts recs into the run's attempted, failed and unterminated
// totals, takes up to take of them, every sampleStride-th, as reference
// samples.
func (r *runResult) tally(w workload, recs []reqRecord, take int) {
	completed := 0
	for i := range recs {
		rec := &recs[i]
		switch {
		case !rec.terminated:
			r.unterminated++
		case rec.err == nil && len(rec.tokens) == w.server.GenLen:
			completed++
		}
		if i%sampleStride == 0 && take > 0 {
			r.samples = append(r.samples, sample{req: rec.req, got: rec.tokens})
			take--
		}
	}
	r.attempted += len(recs)
	r.failed += len(recs) - completed
}

// buildServers times setupBuilds server builds and returns the last
// server with every build time in seconds. Each earlier server is
// closed and collected before the next build, so the builds measure
// set-up alone and do not stack up in the resident set.
func buildServers(cfg moelightning.ServerConfig) (*moelightning.Server, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		t := time.Now()
		srv, err := moelightning.NewServer(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("build server: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		if i == setupBuilds-1 {
			return srv, times, nil
		}
		if err := srv.Close(); err != nil {
			return nil, nil, fmt.Errorf("close idle server: %w", err)
		}
	}
}

// reqRecord is one request's outcome, as the client saw it.
type reqRecord struct {
	req           moelightning.Request
	wave          int           // which timed repetition it belongs to
	sent          time.Time     // when SubmitBatch was called
	submitDur     time.Duration // how long Submit took
	first, last   time.Time     // first and last token received
	tokens        []int
	err           error
	terminated    bool
	streamedCount int
}

// follow drains h's token stream, timing the first and last token, then
// collects the final output. It reports false when h did not finish
// within handleTimeout.
func follow(h *moelightning.Handle, rec *reqRecord) bool {
	deadline := time.NewTimer(handleTimeout)
	defer deadline.Stop()
	toks := h.Tokens()
	for {
		select {
		case _, ok := <-toks:
			if !ok {
				rec.tokens, rec.err = h.Wait()
				rec.terminated = true
				return true
			}
			now := time.Now()
			if rec.streamedCount == 0 {
				rec.first = now
			}
			rec.last = now
			rec.streamedCount++
		case <-deadline.C:
			return false
		}
	}
}

// offlineRun is the outcome of the timed repetitions of a workload.
type offlineRun struct {
	// genRates and promptRates are generated and prompt tokens per
	// second, one of each per repetition.
	genRates, promptRates []float64
	cpu                   time.Duration
	records               []reqRecord
	stats                 moelightning.ServerStats // server counters over the timed phase
}

// runOffline submits one untimed warm-up wave, then whole-wave batches
// until the budget is spent (at least minReps), timing each from
// SubmitBatch to its last completion and every request's first and last
// token. A repetition's requests are all due when it is submitted.
func runOffline(w workload, srv *moelightning.Server, rng *rand.Rand, ids *idSource, budget time.Duration) (offlineRun, error) {
	var out offlineRun
	if _, err := offlineRep(srv, w.batch(rng, ids)); err != nil {
		return out, fmt.Errorf("warm-up: %w", err)
	}
	before := srv.Stats()
	cpu0 := processCPU()
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < budget; rep++ {
		reqs := w.batch(rng, ids)
		t := time.Now()
		recs, err := offlineRep(srv, reqs)
		if err != nil {
			return out, err
		}
		el := time.Since(t).Seconds()
		gen, prompt := 0, 0
		for i := range recs {
			recs[i].wave = rep
			if recs[i].err == nil && recs[i].terminated {
				gen += len(recs[i].tokens)
				prompt += recs[i].req.PromptLen
			}
		}
		out.genRates = append(out.genRates, float64(gen)/el)
		out.promptRates = append(out.promptRates, float64(prompt)/el)
		out.records = append(out.records, recs...)
	}
	out.cpu = processCPU() - cpu0
	out.stats = statsDelta(before, srv.Stats())
	return out, nil
}

// offlineRep submits one batch and follows every request to its end.
func offlineRep(srv *moelightning.Server, reqs []moelightning.Request) ([]reqRecord, error) {
	recs := make([]reqRecord, len(reqs))
	sent := time.Now()
	hs, err := srv.SubmitBatch(context.Background(), reqs)
	submitDur := time.Since(sent)
	if err != nil {
		return nil, fmt.Errorf("submit batch: %w", err)
	}
	done := make(chan struct{}, len(hs))
	for i, h := range hs {
		recs[i] = reqRecord{req: reqs[i], sent: sent, submitDur: submitDur}
		go func(rec *reqRecord) {
			follow(h, rec)
			done <- struct{}{}
		}(&recs[i])
	}
	for range hs {
		<-done
	}
	return recs, nil
}

// statsDelta is the server activity between two snapshots.
func statsDelta(a, b moelightning.ServerStats) moelightning.ServerStats {
	return moelightning.ServerStats{
		Submitted:    b.Submitted - a.Submitted,
		Completed:    b.Completed - a.Completed,
		Failed:       b.Failed - a.Failed,
		Waves:        b.Waves - a.Waves,
		Deferred:     b.Deferred - a.Deferred,
		KVLeaks:      b.KVLeaks - a.KVLeaks,
		FaultRetries: b.FaultRetries - a.FaultRetries,
	}
}

// latencies is the client's view of a timed phase, every latency timed
// from SubmitBatch, when the request was due.
type latencies struct {
	ttft, tpot [][]float64 // ms, per wave
	// genToks and prmToks are the generated and prompt tokens of
	// completed requests.
	genToks, prmToks int
	completed        int
}

// measure times every completed request of waves repetitions.
func measure(w workload, recs []reqRecord, waves int) latencies {
	c := latencies{ttft: make([][]float64, waves), tpot: make([][]float64, waves)}
	for _, rec := range recs {
		if rec.err != nil || !rec.terminated || len(rec.tokens) != w.server.GenLen {
			continue
		}
		c.completed++
		c.genToks += len(rec.tokens)
		c.prmToks += rec.req.PromptLen
		c.ttft[rec.wave] = append(c.ttft[rec.wave], ms(rec.first.Sub(rec.sent)))
		if n := rec.streamedCount; n >= 2 {
			c.tpot[rec.wave] = append(c.tpot[rec.wave], ms(rec.last.Sub(rec.first)/time.Duration(n-1)))
		}
	}
	return c
}

// runEndToEnd measures a workload's end-to-end metrics with tracing
// off. Rates are medians over whole-wave repetitions; latency
// percentiles are taken inside each wave and reported as their median
// over waves.
func runEndToEnd(w workload, seed int64, budget time.Duration) (*runResult, error) {
	res := &runResult{}
	rng := rand.New(rand.NewSource(seed))
	ids := newIDSource(rng)
	srv, builds, err := buildServers(w.server)
	if err != nil {
		return nil, err
	}
	res.add("setup_s", median(builds), "s")
	res.notef("setup: %d builds, median %.4fs", len(builds), median(builds))

	run, err := runOffline(w, srv, rng, ids, budget)
	if err != nil {
		return nil, err
	}
	waves := len(run.genRates)
	lat := measure(w, run.records, waves)
	res.add("gen_tok_s", median(run.genRates), "tok/s")
	res.add("prompt_tok_s", median(run.promptRates), "tok/s")
	res.notef("%s: %d repetitions of %d requests", w.name, waves, w.waveSeqs())
	res.tally(w, run.records, maxSamples)
	for _, q := range []struct {
		name  string
		p     float64
		waves [][]float64
	}{
		{"ttft_p50_ms", 0.5, lat.ttft},
		{"ttft_p90_ms", 0.9, lat.ttft},
		{"tpot_p50_ms", 0.5, lat.tpot},
	} {
		v, n := waveMedian(q.waves, q.p)
		res.add(q.name, v, "ms")
		res.notef("%s: median over %d waves of each wave's p%.0f, %d samples", q.name, waves, q.p*100, n)
	}
	// A closed batch carries no latency limits, so a request meets its
	// SLO by completing.
	res.add("slo_met_ratio", ratio(float64(lat.completed), float64(res.attempted)), "ratio")
	res.add("success_ratio", ratio(float64(lat.completed), float64(res.attempted)), "ratio")
	tokens := lat.genToks + lat.prmToks
	res.add("cpu_ms_per_tok", ratio(ms(run.cpu), float64(tokens)), "ms")
	res.add("rss_peak_mib", peakRSSMiB(), "MiB")
	res.notef("cpu: %.3fs over %d prompt+generated tokens", run.cpu.Seconds(), tokens)
	closeServer(res, srv, run.stats)
	return res, nil
}

// closeServer drains the server and records any broken invariant.
func closeServer(res *runResult, srv *moelightning.Server, stats moelightning.ServerStats) {
	if res.unterminated > 0 {
		// A wedged request would make Close wait forever.
		res.broken = append(res.broken, fmt.Sprintf("%d handles did not terminate", res.unterminated))
		return
	}
	if err := srv.Close(); err != nil {
		res.broken = append(res.broken, fmt.Sprintf("server close: %v", err))
	}
	if stats.KVLeaks != 0 {
		res.broken = append(res.broken, fmt.Sprintf("%d waves leaked KV blocks", stats.KVLeaks))
	}
	if stats.FaultRetries != 0 {
		res.broken = append(res.broken, fmt.Sprintf("%d expert fetch retries", stats.FaultRetries))
	}
}
