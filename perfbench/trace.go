package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"moelightning"
	"moelightning/internal/batching"
	"moelightning/internal/engine"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent names the span that caused this one.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Req    int     `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(name string, parent int, start, end time.Time, req int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: ms(start.Sub(t.origin)), End: ms(end.Sub(t.origin)), Req: req})
	return id
}

// job is one request queued in the wave replay.
type job struct {
	req moelightning.Request
	rec *reqRecord
}

// layerTally accumulates what the wave replay measures at each layer
// boundary.
type layerTally struct {
	waves                           int
	offered, placed                 int
	batchUS, buildMS, closeMS       []float64
	prefillMS                       []float64
	prefillTokens                   int64
	stepMS                          []float64
	stepSeqs                        int
	hits, misses, prefetched, bytes int64
	prefixHits, cowCopies           int64
	// retries and kvLeaks cover every replayed wave, traced or not:
	// the run is incorrect unless both stay 0.
	retries int64
	kvLeaks int
}

// waveReplay replays the engine server's wave loop from the outside,
// calling each layer's public entry point in the order
// engine.Server.runWave does — batching.Batch, engine.NewPipeline,
// Pipeline.GenerateStream, then Close, ReleaseAll and KVIdle — and
// timing each call. StepSink timestamps split GenerateStream into the
// prefill and the decode steps.
type waveReplay struct {
	w                  workload
	weights            *engine.Weights
	gpu, pinned, cache *memory.Arena
	bcfg               batching.Config
	tr                 *tracer
	t                  layerTally
}

// newWaveReplay sizes the weights, arenas and batcher exactly as the
// public server does for the workload's configuration.
func newWaveReplay(w workload, tr *tracer) (*waveReplay, error) {
	cfg := w.server
	weights, err := newWeights(cfg)
	if err != nil {
		return nil, err
	}
	layout := engine.NewLayout(cfg.Model)
	residency := layout.ResidencySlots(cfg.ExpertResidencyBytes) * layout.ExpertFloats()
	weightFloats := 2*layout.LayerFloats() + residency + 4<<20
	kvDim := cfg.Model.KVDim()
	cacheTokens := cfg.MicroBatchSize * cfg.MaxContext
	tokenBytes := kvcache.TokenBytes(kvDim, kvcache.F32)
	return &waveReplay{
		w:       w,
		weights: weights,
		gpu:     memory.NewArena("gpu", weightFloats),
		pinned:  memory.NewArena("pinned", weightFloats),
		cache:   memory.NewArena("kvcache", 2*w.waveSeqs()*cfg.MaxContext*kvDim*2+4<<20),
		bcfg: batching.Config{
			NumMicroBatches: cfg.NumMicroBatches,
			MicroBatchSize:  cfg.MicroBatchSize,
			GenLen:          cfg.GenLen,
			CacheTokens:     cacheTokens,
			TokenBytes:      tokenBytes,
			CacheBytes:      cacheTokens * tokenBytes,
			SharedPrefix:    true,
			BlockTokens:     kvcache.DefaultBlockTokens,
		},
		tr: tr,
	}, nil
}

// runWave batches the pending jobs, runs one wave over the placed ones
// and returns the deferred rest. A traced wave times every call, marks
// each decode step through a StepSink and records its spans and layer
// counters; an untraced one makes the same calls with no sink and keeps
// nothing, so the two differ only by the tracing.
func (d *waveReplay) runWave(pending []job, traced bool) ([]job, error) {
	cfg := d.w.server
	reqs := make([]moelightning.Request, len(pending))
	byID := make(map[int]job, len(pending))
	for i, j := range pending {
		reqs[i] = j.req
		byID[j.req.ID] = j
	}
	t0 := time.Now()
	mbs, aborted, err := batching.Batch(reqs, d.bcfg)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("batching: %w", err)
	}
	if len(mbs) == 0 {
		return nil, fmt.Errorf("batching placed none of %d requests", len(pending))
	}
	var wave []job
	var partition [][]int
	for _, mb := range mbs {
		group := make([]int, 0, len(mb.Requests))
		for _, r := range mb.Requests {
			group = append(group, len(wave))
			wave = append(wave, byID[r.ID])
		}
		partition = append(partition, group)
	}
	deferred := make([]job, 0, len(aborted))
	for _, r := range aborted {
		deferred = append(deferred, byID[r.ID])
	}

	d.gpu.Reset()
	d.pinned.Reset()
	d.cache.Reset()
	pl, err := engine.NewPipeline(d.weights, d.gpu, d.pinned, d.cache, len(wave), engine.Config{
		MaxContext:           cfg.MaxContext,
		Lookahead:            cfg.Lookahead,
		Partition:            partition,
		PrefillChunk:         cfg.PrefillChunk,
		SharedPrefix:         true,
		ExpertResidencyBytes: cfg.ExpertResidencyBytes,
	})
	t2 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("build pipeline: %w", err)
	}
	waveReqs := make([]moelightning.Request, len(wave))
	for i, j := range wave {
		waveReqs[i] = j.req
	}
	prompts := engine.PromptsFromRequests(waveReqs, cfg.Model.VocabSize)

	// marks[t] is when the first token of output index t reached the
	// sink, counts[t] how many sequences emitted one.
	marks := make([]time.Time, cfg.GenLen)
	counts := make([]int, cfg.GenLen)
	var sink engine.StepSink
	if traced {
		sink = func(_, index, _ int) {
			if counts[index] == 0 {
				marks[index] = time.Now()
			}
			counts[index]++
		}
	}
	stop := func(_, emitted int) bool { return emitted >= cfg.GenLen }
	g0 := time.Now()
	tokens, gerr := pl.GenerateStream(prompts, cfg.GenLen, sink, stop)
	g1 := time.Now()
	pl.Close()
	pl.ReleaseAll()
	kvErr := pl.KVIdle()
	t3 := time.Now()

	t := &d.t
	c := &pl.Counters
	if kvErr != nil {
		t.kvLeaks++
	}
	t.retries += c.ExpertPaging.FetchRetries.Load()
	if traced {
		t.waves++
		t.offered += len(pending)
		t.placed += len(wave)
		t.batchUS = append(t.batchUS, us(t1.Sub(t0)))
		t.buildMS = append(t.buildMS, ms(t2.Sub(t1)))
		t.closeMS = append(t.closeMS, ms(t3.Sub(g1)))
		t.hits += c.ExpertPaging.Hits.Load()
		t.misses += c.ExpertPaging.Misses.Load()
		t.prefetched += c.ExpertPaging.Prefetched.Load()
		t.bytes += c.ExpertPaging.BytesFetched.Load()
		t.prefixHits += c.PrefixHitTokens.Load()
		t.cowCopies += c.CowCopies.Load()
		t.prefillTokens += int64(pl.PrefillTokens)

		waveID := d.tr.add("wave", 0, t0, t3, 0)
		d.tr.add("batching.Batch", waveID, t0, t1, 0)
		d.tr.add("engine.NewPipeline", waveID, t1, t2, 0)
		genID := d.tr.add("Pipeline.GenerateStream", waveID, g0, g1, 0)
		if counts[0] > 0 {
			t.prefillMS = append(t.prefillMS, ms(marks[0].Sub(g0)))
			d.tr.add("prefill", genID, g0, marks[0], 0)
		}
		for i := 1; i < len(marks) && counts[i] > 0; i++ {
			t.stepMS = append(t.stepMS, ms(marks[i].Sub(marks[i-1])))
			t.stepSeqs += counts[i]
			d.tr.add("decode.step", genID, marks[i-1], marks[i], 0)
		}
		d.tr.add("Pipeline.Close+ReleaseAll+KVIdle", waveID, g1, t3, 0)
	}

	if gerr != nil {
		return nil, fmt.Errorf("wave: %w", gerr)
	}
	for i, j := range wave {
		j.rec.tokens = tokens[i]
		j.rec.err = pl.SeqErr(i)
		j.rec.terminated = true
	}
	return deferred, nil
}

// drain runs waves until every job is placed.
func (d *waveReplay) drain(jobs []job, traced bool) error {
	for len(jobs) > 0 {
		var err error
		if jobs, err = d.runWave(jobs, traced); err != nil {
			return err
		}
	}
	return nil
}

// replayRun is the outcome of the replay's timed repetitions.
type replayRun struct {
	records []reqRecord
	// traced and untraced are the workload's headline rate, one per
	// traced or untraced repetition.
	traced, untraced []float64
}

// offline runs one untimed warm-up wave, then whole-wave repetitions
// until the budget is spent, like runOffline. Repetitions alternate
// between traced and untraced, so the tracing overhead is measured on
// one code path under the same host conditions.
func (d *waveReplay) offline(rng *rand.Rand, ids *idSource, budget time.Duration) (replayRun, error) {
	var out replayRun
	if err := d.drain(jobsFor(d.w.batch(rng, ids)), false); err != nil {
		return out, fmt.Errorf("warm-up: %w", err)
	}
	start := time.Now()
	for rep := 0; rep < 2*minReps || time.Since(start) < budget; rep++ {
		jobs := jobsFor(d.w.batch(rng, ids))
		traced := rep%2 == 0
		t := time.Now()
		if err := d.drain(jobs, traced); err != nil {
			return out, err
		}
		el := time.Since(t).Seconds()
		gen, prompt := 0, 0
		for _, j := range jobs {
			gen += len(j.rec.tokens)
			prompt += j.req.PromptLen
			out.records = append(out.records, *j.rec)
		}
		rate := float64(gen) / el
		if d.w.countPrompt {
			rate = float64(prompt) / el
		}
		if traced {
			out.traced = append(out.traced, rate)
		} else {
			out.untraced = append(out.untraced, rate)
		}
	}
	return out, nil
}

func jobsFor(reqs []moelightning.Request) []job {
	jobs := make([]job, len(reqs))
	for i, r := range reqs {
		jobs[i] = job{req: r, rec: &reqRecord{req: r}}
	}
	return jobs
}

// runTraced is the per-layer run. It spends half the budget driving the
// public server with client-side spans (Submit, first token, last
// token) and the other half replaying the server's wave loop from
// outside, then probes the kernels and the KV cache on the workload's
// shapes. Each half checks its own share of reference samples.
func runTraced(w workload, seed int64, budget time.Duration) (*runResult, []span, error) {
	res := &runResult{}
	rng := rand.New(rand.NewSource(seed))
	ids := newIDSource(rng)
	tr := &tracer{origin: time.Now()}
	half := budget / 2

	srv, err := moelightning.NewServer(w.server)
	if err != nil {
		return nil, nil, fmt.Errorf("build server: %w", err)
	}
	run, err := runOffline(w, srv, rng, ids, half)
	if err != nil {
		return nil, nil, err
	}
	facade, stats := run.records, run.stats
	res.tally(w, facade, maxSamples/2)
	closeServer(res, srv, stats)
	runtime.GC()

	d, err := newWaveReplay(w, tr)
	if err != nil {
		return nil, nil, err
	}
	replay, err := d.offline(rng, ids, half)
	if err != nil {
		return nil, nil, err
	}
	driven := replay.records

	// Client-side facade spans.
	var submitUS, firstMS, lastMS []float64
	for _, rec := range facade {
		submitUS = append(submitUS, us(rec.submitDur))
		if rec.streamedCount == 0 {
			continue
		}
		firstMS = append(firstMS, ms(rec.first.Sub(rec.sent)))
		lastMS = append(lastMS, ms(rec.last.Sub(rec.sent)))
		id := tr.add("request", 0, rec.sent, rec.last, rec.req.ID)
		tr.add("Server.Submit", id, rec.sent, rec.sent.Add(rec.submitDur), rec.req.ID)
		tr.add("first_token", id, rec.sent, rec.first, rec.req.ID)
	}

	t := d.t
	res.add("server.submit_us_p50", median(submitUS), "us")
	res.add("server.first_token_ms_p50", median(firstMS), "ms")
	res.add("server.last_token_ms_p50", median(lastMS), "ms")
	res.add("server.waves", float64(stats.Waves), "count")
	res.add("server.seqs_per_wave", ratio(float64(stats.Completed+stats.Failed), float64(stats.Waves)), "count")
	res.add("server.deferred_ratio", ratio(float64(stats.Deferred), float64(stats.Submitted)), "ratio")
	res.add("server.failed", float64(stats.Failed), "count")
	res.add("server.kv_leaks", float64(stats.KVLeaks), "count")
	res.add("batching.call_us_p50", median(t.batchUS), "us")
	res.add("batching.placed_ratio", ratio(float64(t.placed), float64(t.offered)), "ratio")
	res.add("wave.build_ms_p50", median(t.buildMS), "ms")
	res.add("wave.close_ms_p50", median(t.closeMS), "ms")
	var prefillSum float64
	for _, v := range t.prefillMS {
		prefillSum += v
	}
	res.add("prefill.ms_per_wave_p50", median(t.prefillMS), "ms")
	res.add("prefill.tok_s", ratio(float64(t.prefillTokens), prefillSum/1000), "tok/s")
	res.add("prefill.tokens", float64(t.prefillTokens), "count")
	stepP90, ok := percentile(t.stepMS, 0.9)
	if !ok {
		res.notef("decode.step_ms_p90: only %d decode steps, fewer than %d lie beyond p90", len(t.stepMS), minBeyond)
	}
	res.add("decode.step_ms_p50", median(t.stepMS), "ms")
	res.add("decode.step_ms_p90", stepP90, "ms")
	res.add("decode.seqs_per_step", ratio(float64(t.stepSeqs), float64(len(t.stepMS))), "count")
	res.add("paging.hit_ratio", ratio(float64(t.hits), float64(t.hits+t.misses)), "ratio")
	res.add("paging.misses_per_wave", ratio(float64(t.misses), float64(t.waves)), "count")
	res.add("paging.mib_per_wave", ratio(float64(t.bytes)/(1<<20), float64(t.waves)), "MiB")
	res.add("paging.prefetch_ratio", ratio(float64(t.prefetched), float64(t.prefetched+t.misses)), "ratio")
	res.add("paging.fetch_retries", float64(t.retries), "count")
	res.add("kv.prefix_hit_ratio", ratio(float64(t.prefixHits), float64(t.prefixHits+t.prefillTokens)), "ratio")
	res.add("kv.cow_copies", float64(t.cowCopies), "count")
	probes, err := probeLayers(w, driven)
	if err != nil {
		return nil, nil, err
	}
	res.metrics = append(res.metrics, probes...)
	// Positive means tracing lowered the headline rate.
	traced, untraced := median(replay.traced), median(replay.untraced)
	res.add("trace.overhead_pct", 100*(untraced/traced-1), "%")
	res.notef("tracing overhead: %s median %.4f over %d untraced vs %.4f over %d traced replay repetitions",
		headlineName(w), untraced, len(replay.untraced), traced, len(replay.traced))
	res.notef("traced: %d waves, %d decode steps, %d spans", t.waves, len(t.stepMS), len(tr.spans))
	if t.kvLeaks != 0 {
		res.broken = append(res.broken, fmt.Sprintf("%d driven waves leaked KV blocks", t.kvLeaks))
	}
	if t.retries != 0 {
		res.broken = append(res.broken, fmt.Sprintf("%d expert fetch retries in driven waves", t.retries))
	}

	res.tally(w, driven, maxSamples/2)
	return res, tr.spans, nil
}

func headlineName(w workload) string {
	if w.countPrompt {
		return "prompt_tok_s"
	}
	return "gen_tok_s"
}
