package main

import (
	"fmt"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/tensor"
)

// probeBudget is roughly how long each kernel probe repeats its call.
const probeBudget = 150 * time.Millisecond

// timeCalls calls fn until probeBudget has passed (at least five
// times) and returns the median duration of one call.
func timeCalls(fn func()) time.Duration {
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < probeBudget {
		t := time.Now()
		fn()
		per = append(per, float64(time.Since(t)))
	}
	return time.Duration(median(per))
}

// fill writes a deterministic small pattern so the kernels run on
// ordinary finite values.
func fill(xs []float32, salt int) {
	for i := range xs {
		xs[i] = float32((i*7+salt*13)%17-8) / 32
	}
}

func filledMat(rows, cols, salt int) tensor.Mat {
	m := tensor.NewMat(rows, cols)
	fill(m.Data, salt)
	return m
}

// blocksOf views m as consecutive blocks of the KV cache's geometry,
// the paged layout attention reads.
func blocksOf(m tensor.Mat) []tensor.Mat {
	var out []tensor.Mat
	bt := kvcache.DefaultBlockTokens
	for lo := 0; lo < m.Rows; lo += bt {
		hi := min(lo+bt, m.Rows)
		out = append(out, tensor.FromSlice(hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols]))
	}
	return out
}

// probeLayers times the kernels and the KV cache on the shapes the
// workload's own requests produce: the decode shape (one micro-batch,
// its tokens spread over the experts) and the prefill shape (one packed
// prefill chunk of the wave's prompts).
func probeLayers(w workload, recs []reqRecord) ([]metric, error) {
	m := w.server.Model
	var prompt float64
	for _, rec := range recs {
		prompt += float64(rec.req.PromptLen)
	}
	prompt /= float64(len(recs))
	gen := float64(w.server.GenLen)
	avgPrompt := max(1, int(prompt+0.5))
	decodeCtx := max(1, int(prompt+gen/2+0.5))
	chunk := engine.DefaultPrefillChunk
	if w.server.PrefillChunk > 0 {
		chunk = w.server.PrefillChunk
	}
	prefillTokens := min(chunk, w.waveSeqs()*avgPrompt)

	// Expert FFN: gate and up projections, SiLU, down projection over
	// the tokens one expert receives.
	tokens := w.server.MicroBatchSize
	if w.countPrompt {
		tokens = prefillTokens
	}
	rows := max(1, tokens*m.TopK/m.Experts)
	h, h2 := m.Hidden, m.Intermediate
	xe, gate, up, down := filledMat(rows, h, 1), filledMat(h2, h, 2), filledMat(h2, h, 3), filledMat(h, h2, 4)
	gateAct, upAct, proj := tensor.NewMat(rows, h2), tensor.NewMat(rows, h2), tensor.NewMat(rows, h)
	gemm := timeCalls(func() {
		tensor.MatMulTParallel(gateAct, xe, gate)
		tensor.MatMulTParallel(upAct, xe, up)
		tensor.SiLUMul(gateAct.Data, gateAct.Data, upAct.Data)
		tensor.MatMulTParallel(proj, gateAct, down)
	})
	// FLOPs from the tensor sizes: three GEMMs of rows x h x h2
	// multiply-adds each.
	flops := 3 * 2 * float64(rows) * float64(h) * float64(h2)

	// Decode attention: one micro-batch of single-token queries over
	// paged context.
	nq, nkv, hd := m.QHeads, m.KVHeads, m.HeadDim
	items := make([]tensor.AttnItem, w.server.MicroBatchSize)
	for i := range items {
		items[i] = tensor.AttnItem{
			Out:         make([]float32, nq*hd),
			Q:           filledMat(1, nq*hd, i).Data,
			Scores:      make([]float32, decodeCtx),
			KeyBlocks:   blocksOf(filledMat(decodeCtx, nkv*hd, 5+i)),
			ValueBlocks: blocksOf(filledMat(decodeCtx, nkv*hd, 6+i)),
		}
	}
	attend := timeCalls(func() { tensor.AttendMany(items, nq, nkv, hd) })

	// Prefill attention: one packed chunk of causal prompts.
	var causal []tensor.CausalItem
	for left := prefillTokens; left > 0; left -= avgPrompt {
		n := min(left, avgPrompt)
		causal = append(causal, tensor.CausalItem{
			Out:         tensor.NewMat(n, nq*hd),
			Queries:     filledMat(n, nq*hd, len(causal)),
			KeyBlocks:   blocksOf(filledMat(n, nkv*hd, 7+len(causal))),
			ValueBlocks: blocksOf(filledMat(n, nkv*hd, 8+len(causal))),
		})
	}
	causalT := timeCalls(func() { tensor.AttendCausalMany(causal, nq, nkv, hd) })

	appendT, err := probeAppend(w, int(prompt+gen+0.5))
	if err != nil {
		return nil, err
	}
	return []metric{
		{"kv.append_us_per_tok", us(appendT), "us"},
		{"tensor.ffn_gemm_us", us(gemm), "us"},
		{"tensor.ffn_gemm_gflops", flops / gemm.Seconds() / 1e9, "GFLOP/s"},
		{"tensor.attend_us_per_seq", us(attend) / float64(len(items)), "us"},
		{"tensor.causal_attn_us_per_tok", us(causalT) / float64(prefillTokens), "us"},
	}, nil
}

// probeAppend times kvcache.Cache.Append filling a full wave of
// sequences to the workload's average final context, and returns the
// median time per token (one K/V row pair for every layer).
func probeAppend(w workload, ctx int) (time.Duration, error) {
	m := w.server.Model
	seqs := w.waveSeqs()
	ctx = min(max(ctx, 1), w.server.MaxContext)
	arena := memory.NewArena("kvprobe", refCacheFloats(m, seqs, w.server.MaxContext))
	cache, err := kvcache.New(arena, m.Layers, m.KVDim(), kvcache.DefaultBlockTokens, seqs*w.server.MaxContext, kvcache.F32)
	if err != nil {
		return 0, fmt.Errorf("kv probe: %w", err)
	}
	k, v := filledMat(1, m.KVDim(), 1).Data, filledMat(1, m.KVDim(), 2).Data
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < probeBudget {
		t := time.Now()
		for s := 0; s < seqs; s++ {
			for i := 0; i < ctx; i++ {
				for l := 0; l < m.Layers; l++ {
					if err := cache.Append(s, l, k, v); err != nil {
						return 0, fmt.Errorf("kv probe: %w", err)
					}
				}
			}
		}
		per = append(per, float64(time.Since(t))/float64(seqs*ctx))
		for s := 0; s < seqs; s++ {
			cache.Release(s)
		}
	}
	return time.Duration(median(per)), nil
}
