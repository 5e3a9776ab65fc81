package engine

import (
	"time"

	"moelightning/internal/kvcache"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// In-process measurement harness for internal/calib: the same decode
// and prefill paths the benchmarks time (benchDecodeStep,
// BenchmarkPrefillPacked), exported as functions so the calibration
// layer can harvest real step times without going through `go test
// -bench`. Every run is seeded and self-contained — weights and arenas
// are built per call and freed on return.

// DecodeBenchConfig parameterizes one decode-step measurement.
type DecodeBenchConfig struct {
	// Model is the architecture to run (tiny scale only — the harness
	// executes real float32 math).
	Model model.Config
	// Seed makes the synthetic weights and prompts deterministic.
	Seed int64
	// Seqs sequences decode in Seqs/Mu micro-batches.
	Seqs, Mu int
	// PromptLen is the prefilled context before the measured steps.
	PromptLen int
	// Steps is how many decode steps to time (after one untimed
	// warm-up step that fills pipelines and the expert pool).
	Steps int
	// KVDtype selects the cache codec.
	KVDtype kvcache.DType
	// ExpertResidencyBytes sizes the pager's resident set (0 = the
	// default two-layer working set).
	ExpertResidencyBytes int
}

// DecodeBenchResult is one timed decode run.
type DecodeBenchResult struct {
	// SecondsPerStep is wall time per decode step; each step generates
	// Seqs tokens.
	SecondsPerStep float64
	// Context is the cached context length at the midpoint of the
	// measured steps.
	Context int
	// ExpertHits / ExpertMisses / ExpertBytesFetched are the pager's
	// traffic over the measured steps only (warm-up excluded).
	ExpertHits, ExpertMisses, ExpertBytesFetched int64
}

// MeasureDecodeSteps prefills cfg.Seqs prompts, primes layer 0, runs
// one warm-up step, then times cfg.Steps steady-state decode steps
// through the full pipelined lane schedule (GPU, CPU, HtoD, DtoH).
func MeasureDecodeSteps(cfg DecodeBenchConfig) (DecodeBenchResult, error) {
	var res DecodeBenchResult
	if cfg.Steps <= 0 {
		cfg.Steps = 8
	}
	if cfg.PromptLen <= 0 {
		cfg.PromptLen = 4
	}
	maxContext := cfg.PromptLen + cfg.Steps + 8

	pl, prompts, err := buildBenchPipeline(cfg.Model, cfg.Seed, cfg.Seqs, Config{
		MicroBatch:           cfg.Mu,
		MaxContext:           maxContext,
		KVDtype:              cfg.KVDtype,
		ExpertResidencyBytes: cfg.ExpertResidencyBytes,
	}, cfg.PromptLen)
	if err != nil {
		return res, err
	}
	defer pl.Close()

	if err := pl.prefill(prompts); err != nil {
		return res, err
	}
	if err := pl.primeLayer(0); err != nil {
		return res, err
	}
	if err := pl.decodeStep(0); err != nil { // warm-up
		return res, err
	}
	paging := &pl.Counters.ExpertPaging
	hits0, misses0 := paging.Hits.Load(), paging.Misses.Load()
	bytes0 := paging.BytesFetched.Load()

	start := time.Now()
	for t := 1; t <= cfg.Steps; t++ {
		if err := pl.decodeStep(t); err != nil {
			return res, err
		}
	}
	elapsed := time.Since(start)

	res.SecondsPerStep = elapsed.Seconds() / float64(cfg.Steps)
	res.Context = cfg.PromptLen + 1 + cfg.Steps/2
	res.ExpertHits = paging.Hits.Load() - hits0
	res.ExpertMisses = paging.Misses.Load() - misses0
	res.ExpertBytesFetched = paging.BytesFetched.Load() - bytes0
	return res, nil
}

// PrefillBenchConfig parameterizes one packed-prefill measurement.
type PrefillBenchConfig struct {
	Model model.Config
	Seed  int64
	// Seqs prompts of PromptLen tokens prefill as one wave.
	Seqs, PromptLen int
	// Chunk bounds the per-layer packed batch (<= 0 selects the engine
	// default).
	Chunk   int
	KVDtype kvcache.DType
}

// PrefillBenchResult is one timed packed-prefill pass.
type PrefillBenchResult struct {
	// Tokens prompt tokens prefilled in Seconds of wall clock.
	Tokens  int
	Seconds float64
}

// MeasurePrefill times the wave-packed prefill pass at the given chunk
// size: per layer, all live prompt tokens pack into chunk-bounded
// batches of one QKV GEMM + one expert-grouped FFN pass each.
func MeasurePrefill(cfg PrefillBenchConfig) (PrefillBenchResult, error) {
	var res PrefillBenchResult
	if cfg.PromptLen <= 0 {
		cfg.PromptLen = 16
	}
	pl, prompts, err := buildBenchPipeline(cfg.Model, cfg.Seed, cfg.Seqs, Config{
		MicroBatch:   cfg.Seqs,
		MaxContext:   cfg.PromptLen + 8,
		KVDtype:      cfg.KVDtype,
		PrefillChunk: cfg.Chunk,
	}, cfg.PromptLen)
	if err != nil {
		return res, err
	}
	defer pl.Close()

	start := time.Now()
	if err := pl.prefill(prompts); err != nil {
		return res, err
	}
	res.Seconds = time.Since(start).Seconds()
	res.Tokens = pl.PrefillTokens
	return res, nil
}

// ServeBenchResult is one timed closed-queue serve run: the server's
// stats and the wall-clock Seconds the drain took, which with
// GeneratedTokens give the end-to-end generation throughput (prefill +
// decode + scheduling) the calibrated performance model is judged
// against.
type ServeBenchResult struct {
	ServerStats
	Seconds float64
}

// MeasureServe builds weights and arenas (sized like the public
// server), drains the request queue through a Server and reports
// wall-clock generation throughput.
func MeasureServe(m model.Config, seed int64, queue []workload.Request, cfg ServeConfig) (ServeBenchResult, error) {
	var res ServeBenchResult
	cpu, gpu, pinned, cacheArena := NewArenas(m, cfg.ExpertResidencyBytes, cfg.MicroBatchSize*cfg.NumMicroBatches, cfg.MaxContext)
	w, err := NewRandomWeights(cpu, m, seed)
	if err != nil {
		return res, err
	}
	start := time.Now()
	srv, err := NewServer(w, gpu, pinned, cacheArena, cfg)
	if err != nil {
		return res, err
	}
	_, err = srv.SubmitBatch(queue, nil)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	res.Seconds = time.Since(start).Seconds()
	res.ServerStats = srv.Stats()
	return res, nil
}

// buildBenchPipeline sizes arenas for the model (the same shape the
// public server uses) and builds a pipeline plus synthetic prompts.
func buildBenchPipeline(m model.Config, seed int64, seqs int, cfg Config, promptLen int) (*Pipeline, [][]int, error) {
	cpu, gpu, pinned, cacheArena := NewArenas(m, cfg.ExpertResidencyBytes, seqs, cfg.MaxContext)
	w, err := NewRandomWeights(cpu, m, seed)
	if err != nil {
		return nil, nil, err
	}
	reqs := make([]workload.Request, seqs)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, PromptLen: promptLen}
	}
	prompts := PromptsFromRequests(reqs, m.VocabSize)
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, cfg)
	if err != nil {
		return nil, nil, err
	}
	return pl, prompts, nil
}
