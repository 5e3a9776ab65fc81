package engine

import (
	"errors"
	"reflect"
	"testing"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// mixedPrompts is the packed-prefill stress shape: lengths from a
// single token to several KV blocks (blockTokens is 16), so chunks
// split long prompts and pack many short ones together.
func mixedPrompts(vocab int) [][]int {
	reqs := []workload.Request{
		{ID: 0, PromptLen: 1},
		{ID: 1, PromptLen: 3},
		{ID: 2, PromptLen: 9},
		{ID: 3, PromptLen: 17},
		{ID: 4, PromptLen: 33},
	}
	return PromptsFromRequests(reqs, vocab)
}

// TestPackedPrefillBitIdenticalMixedLengths: the wave-packed prefill
// must reproduce the sequential reference exactly — tokens AND routing
// decisions — across mixed prompt lengths (1 token to multi-block)
// under both KV codecs, for chunk sizes from one packed batch down to
// budgets far smaller than the longest prompt.
func TestPackedPrefillBitIdenticalMixedLengths(t *testing.T) {
	cfg := model.Tiny()
	for _, dtype := range []kvcache.DType{kvcache.F32, kvcache.Int8} {
		for _, chunk := range []int{0, 1, 5, 16, 63} {
			cpu := memory.NewArena("cpu", 1<<22)
			w, err := NewRandomWeights(cpu, cfg, 27)
			if err != nil {
				t.Fatal(err)
			}
			prompts := mixedPrompts(cfg.VocabSize)

			ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), len(prompts), 64, dtype)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Generate(prompts, 4)
			if err != nil {
				t.Fatal(err)
			}

			gpu := memory.NewArena("gpu", 1<<22)
			pinned := memory.NewArena("pinned", 1<<22)
			cacheArena := memory.NewArena("cache", 1<<22)
			pl, err := NewPipeline(w, gpu, pinned, cacheArena, len(prompts),
				Config{MicroBatch: 2, MaxContext: 64, KVDtype: dtype, PrefillChunk: chunk})
			if err != nil {
				t.Fatal(err)
			}
			got, err := pl.Generate(prompts, 4)
			if err != nil {
				pl.Close()
				t.Fatalf("dtype %v chunk %d: %v", dtype, chunk, err)
			}
			if !reflect.DeepEqual(got, want) {
				pl.Close()
				t.Fatalf("dtype %v chunk %d: packed prefill diverged from reference\n got %v\nwant %v",
					dtype, chunk, got, want)
			}
			if !reflect.DeepEqual(pl.ExpertLoad, ref.ExpertLoad) {
				pl.Close()
				t.Fatalf("dtype %v chunk %d: expert load diverged", dtype, chunk)
			}
			pl.Close()
		}
	}
}

// TestPackedPrefillCountsPackedKernels: the GPUKernels counter must
// report launched packed kernels — one QKV batch plus one FFN pass per
// (layer, chunk) — not a per-sequence count.
func TestPackedPrefillCountsPackedKernels(t *testing.T) {
	cfg := model.Tiny()
	for _, tc := range []struct {
		chunk, wantChunks int
	}{
		{0, 1},  // default budget packs the whole 63-token wave
		{63, 1}, // exact fit
		{16, 4}, // ceil(63/16)
		{5, 13}, // ceil(63/5)
	} {
		cpu, gpu, pinned, cacheArena := newTestArenas()
		w, err := NewRandomWeights(cpu, cfg, 27)
		if err != nil {
			t.Fatal(err)
		}
		prompts := mixedPrompts(cfg.VocabSize) // 1+3+9+17+33 = 63 tokens
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, len(prompts),
			Config{MicroBatch: 2, MaxContext: 64, PrefillChunk: tc.chunk})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.prefill(prompts); err != nil {
			t.Fatal(err)
		}
		want := int64(2 * cfg.Layers * tc.wantChunks)
		if got := pl.Counters.GPUKernels.Load(); got != want {
			t.Errorf("chunk %d: GPUKernels = %d, want %d (2 per layer per packed chunk)",
				tc.chunk, got, want)
		}
		if pl.PrefillTokens != 63 {
			t.Errorf("chunk %d: PrefillTokens = %d, want 63", tc.chunk, pl.PrefillTokens)
		}
		pl.Close()
	}
}

// TestPackedPrefillExhaustionMidChunk: KV-pool exhaustion inside a
// packed chunk must retire only the starved sequence — its rows masked
// out of subsequent packed batches, its blocks released — while the
// survivors stay bit-identical to the reference, even when the chunk
// budget splits the offending prompt across several packed batches.
func TestPackedPrefillExhaustionMidChunk(t *testing.T) {
	for _, chunk := range []int{0, 8} {
		w, gpu, pinned, cacheArena, _, prompts, want := prefillExhaustionFixture(t)
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, 3,
			Config{MicroBatch: 3, MaxContext: 16, PrefillChunk: chunk})
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Generate(prompts, exhaustionGenLen)
		if err != nil {
			pl.Close()
			t.Fatalf("chunk %d: prefill exhaustion failed the whole wave: %v", chunk, err)
		}
		if serr := pl.SeqErr(0); !errors.Is(serr, kvcache.ErrOutOfBlocks) {
			pl.Close()
			t.Fatalf("chunk %d: SeqErr(0) = %v, want ErrOutOfBlocks", chunk, serr)
		}
		if len(got[0]) != 0 {
			pl.Close()
			t.Fatalf("chunk %d: offender emitted %v despite failing in prefill", chunk, got[0])
		}
		for s := 1; s < 3; s++ {
			if serr := pl.SeqErr(s); serr != nil {
				pl.Close()
				t.Fatalf("chunk %d: survivor %d has error %v", chunk, s, serr)
			}
			if !reflect.DeepEqual(got[s], want[s]) {
				pl.Close()
				t.Fatalf("chunk %d: survivor %d diverged: %v vs %v", chunk, s, got[s], want[s])
			}
		}
		// Survivors never starved: only their prompt tokens count as
		// prefilled.
		if pl.PrefillTokens != len(prompts[1])+len(prompts[2]) {
			pl.Close()
			t.Fatalf("chunk %d: PrefillTokens = %d, want %d (survivors only)",
				chunk, pl.PrefillTokens, len(prompts[1])+len(prompts[2]))
		}
		pl.Close()
	}
}

// TestServeReportsPrefillThroughput: the serving stats must carry the
// wave's prompt-token count and a nonzero prefill rate.
func TestServeReportsPrefillThroughput(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []workload.Request{
		{ID: 0, PromptLen: 4}, {ID: 1, PromptLen: 7}, {ID: 2, PromptLen: 5},
	}
	_, res, err := serveAll(w, gpu, pinned, cacheArena, reqs, ServeConfig{
		NumMicroBatches: 2, MicroBatchSize: 2,
		GenLen: 3, CacheTokens: 200, MaxContext: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefillTokens != 16 {
		t.Errorf("PrefillTokens = %d, want 16", res.PrefillTokens)
	}
	if res.PrefillTokensPerSecond <= 0 {
		t.Errorf("PrefillTokensPerSecond = %g, want > 0", res.PrefillTokensPerSecond)
	}
}

// TestInt8WavesBatchMoreSequences: the byte-aware batcher's end-to-end
// effect. Four long-prompt requests overflow a float32 wave's KV
// budget (two waves, two deferrals) but fit one int8 wave outright —
// the same CacheTokens budget spent at the quantized per-token byte
// rate admits ~32/9 the context.
func TestInt8WavesBatchMoreSequences(t *testing.T) {
	cfg := model.Tiny()
	reqs := []workload.Request{
		{ID: 0, PromptLen: 40}, {ID: 1, PromptLen: 40},
		{ID: 2, PromptLen: 40}, {ID: 3, PromptLen: 40},
	}
	run := func(dtype kvcache.DType) ServerStats {
		cpu, gpu, pinned, cacheArena := newTestArenas()
		w, err := NewRandomWeights(cpu, cfg, 13)
		if err != nil {
			t.Fatal(err)
		}
		outputs, res, err := serveAll(w, gpu, pinned, cacheArena, reqs, ServeConfig{
			NumMicroBatches: 1, MicroBatchSize: 4,
			GenLen: 5, CacheTokens: 100, MaxContext: 64,
			KVDtype: dtype,
		})
		if err != nil {
			t.Fatalf("dtype %v: %v", dtype, err)
		}
		if len(outputs) != len(reqs) {
			t.Fatalf("dtype %v: served %d of %d", dtype, len(outputs), len(reqs))
		}
		for id, toks := range outputs {
			if len(toks) != 5 {
				t.Fatalf("dtype %v: request %d generated %d tokens", dtype, id, len(toks))
			}
		}
		return res
	}
	f32 := run(kvcache.F32)
	int8 := run(kvcache.Int8)
	// f32: 40+5=45 fits, 80+10=90 fits, 120+15 > 100 defers -> 2 waves.
	if f32.Waves != 2 || f32.Deferred != 2 {
		t.Errorf("f32 waves/deferred = %d/%d, want 2/2", f32.Waves, f32.Deferred)
	}
	// int8: the same 100-token budget in bytes covers ~320 quantized
	// tokens, so all four requests batch into one wave.
	if int8.Waves != 1 || int8.Deferred != 0 {
		t.Errorf("int8 waves/deferred = %d/%d, want 1/0 (byte-aware batching)", int8.Waves, int8.Deferred)
	}
}
