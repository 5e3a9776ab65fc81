package moelightning

import (
	"context"
	"fmt"

	"moelightning/internal/engine"
	"moelightning/internal/memory"
	"moelightning/internal/workload"
)

// Request is one inference request (prompt length + generation length).
type Request = workload.Request

// FunctionalOptions parameterizes a functional-engine run: a real
// (tiny-scale) MoE transformer executing CGOPipe with one goroutine per
// hardware lane over explicit memory arenas.
type FunctionalOptions struct {
	// Seed makes the synthetic weights deterministic.
	Seed int64
	// MicroBatchSize and NumMicroBatches shape each serving wave
	// (Alg. 2 batching); defaults 2 and 2.
	MicroBatchSize  int
	NumMicroBatches int
	// GenLen is tokens to generate per request; default 8.
	GenLen int
	// MaxContext bounds any sequence; default 128.
	MaxContext int
	// Lookahead is the pipeline's CPU-attention lookahead (Alg. 1's
	// default of 2 when zero).
	Lookahead int
	// Vocab sizes the synthetic prompts derived from request IDs;
	// default the model's vocabulary.
	Vocab int
	// Verify re-runs every request on the sequential reference engine
	// and errors out on any token mismatch. The reference reads a cache
	// of the same KVDtype, so verification holds bit-exactly even with
	// quantization on.
	Verify bool
	// KVDtype selects the KV cache codec: KVFloat32 (the zero value)
	// or KVInt8 for the §3.3 group-quantized cache.
	KVDtype KVDtype
	// PrefillChunk bounds the wave-packed prefill's per-layer packed
	// batch in prompt tokens (<= 0 selects the engine default).
	PrefillChunk int
	// ExpertResidencyBytes caps the GPU-resident expert-weight pool
	// (<= 0 selects two layers' expert sets). Output is bit-identical
	// for any value; a smaller pool just demand-fetches more.
	ExpertResidencyBytes int
	// SharedPrefixKV controls shared-prefix KV reuse (the zero value is
	// SharedPrefixOn): requests declaring a common prefix share cache
	// blocks and skip the matched prefill. Bit-identical either way —
	// Verify holds with sharing on.
	SharedPrefixKV SharedPrefixMode
}

func (o *FunctionalOptions) defaults() {
	if o.MicroBatchSize <= 0 {
		o.MicroBatchSize = 2
	}
	if o.NumMicroBatches <= 0 {
		o.NumMicroBatches = 2
	}
	if o.GenLen <= 0 {
		o.GenLen = 8
	}
	if o.MaxContext <= 0 {
		o.MaxContext = 128
	}
}

// FunctionalResult reports a functional run: every generated output,
// the server's stats for the drain (waves, deferrals, prefill and
// prefix-sharing counts, data movement, expert paging), and whether
// the reference cross-check ran.
type FunctionalResult struct {
	ServerStats
	// Outputs maps request ID to generated token IDs.
	Outputs map[int][]int
	// Verified is true when the reference cross-check ran and matched.
	Verified bool
}

// RunFunctional serves a request queue through the functional CGOPipe
// engine at tiny scale: a thin compatibility wrapper over Server that
// submits the whole queue at once and drains it, reproducing the
// classic closed-batch behavior (every request generates exactly GenLen
// tokens). Use TinyMoE() (or a similarly small config) — this executes
// real float32 math, so full-size configs are intentionally not
// supported.
func RunFunctional(cfg ModelConfig, requests []Request, opts FunctionalOptions) (FunctionalResult, error) {
	opts.defaults()
	if len(requests) == 0 {
		return FunctionalResult{}, fmt.Errorf("moelightning: empty request queue")
	}
	srv, err := NewServer(ServerConfig{
		Model:                cfg,
		Seed:                 opts.Seed,
		MicroBatchSize:       opts.MicroBatchSize,
		NumMicroBatches:      opts.NumMicroBatches,
		GenLen:               opts.GenLen,
		MaxContext:           opts.MaxContext,
		Lookahead:            opts.Lookahead,
		Vocab:                opts.Vocab,
		FixedGenLen:          true,
		KVDtype:              opts.KVDtype,
		PrefillChunk:         opts.PrefillChunk,
		ExpertResidencyBytes: opts.ExpertResidencyBytes,
		SharedPrefixKV:       opts.SharedPrefixKV,
	})
	if err != nil {
		return FunctionalResult{}, err
	}
	handles, err := srv.SubmitBatch(context.Background(), requests)
	if err != nil {
		srv.Close()
		return FunctionalResult{}, err
	}
	if err := srv.Close(); err != nil { // drains: every handle finishes
		return FunctionalResult{}, err
	}

	out := FunctionalResult{Outputs: make(map[int][]int, len(handles))}
	for _, h := range handles {
		tokens, herr := h.Wait()
		if herr != nil {
			return FunctionalResult{}, herr
		}
		out.Outputs[h.ID()] = tokens
	}
	out.ServerStats = srv.Stats()

	if opts.Verify {
		// srv.vocab is the serving path's effective vocabulary, so the
		// reference re-derives exactly the prompts the server used.
		prompts := engine.PromptsFromRequests(requests, srv.vocab)
		ref, err := engine.NewReferenceKV(srv.w, memory.NewArena("ref", srv.cacheCap), len(requests), opts.MaxContext, opts.KVDtype)
		if err != nil {
			return out, err
		}
		want, err := ref.Generate(prompts, opts.GenLen)
		if err != nil {
			return out, err
		}
		for i, r := range requests {
			if !equalInts(out.Outputs[r.ID], want[i]) {
				return out, fmt.Errorf("moelightning: request %d diverged from the reference", r.ID)
			}
		}
		out.Verified = true
	}
	return out, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
