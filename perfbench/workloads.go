package main

import (
	"fmt"
	"math/rand"

	"moelightning"
	"moelightning/internal/model"
)

// weightSeed fixes the synthetic weights: every run serves the same
// model, and --seed varies only the requests.
const weightSeed = 7

// benchModel is sized so a decode step is tens of milliseconds of GEMM
// work rather than a few milliseconds of lane handoffs: ~3.4M
// parameters, 32 expert blocks of 393 KB of which the default two-layer
// residency keeps half, so every decode step pages experts.
func benchModel() model.Config {
	return model.Config{
		Name: "Bench-MoE", Layers: 4,
		Hidden: 128, Intermediate: 256,
		QHeads: 8, KVHeads: 2, HeadDim: 16,
		Experts: 8, TopK: 2,
		VocabSize:   512,
		WeightDType: model.F32, KVDType: model.F32,
	}
}

// workload is one named traffic mix the benchmark runs.
type workload struct {
	name   string
	server moelightning.ServerConfig
	// batch draws one timed repetition: a full wave of requests.
	batch func(rng *rand.Rand, ids *idSource) []moelightning.Request
	// countPrompt makes the headline rate count prompt tokens
	// (prompt_tok_s) instead of generated ones (gen_tok_s).
	countPrompt bool
}

// waveSeqs is the sequences one wave holds.
func (w workload) waveSeqs() int { return w.server.MicroBatchSize * w.server.NumMicroBatches }

// serverConfig is a bench-model server whose every request generates
// exactly genLen tokens.
func serverConfig(mbs, nmbs, genLen, maxContext int) moelightning.ServerConfig {
	return moelightning.ServerConfig{
		Model:           benchModel(),
		Seed:            weightSeed,
		MicroBatchSize:  mbs,
		NumMicroBatches: nmbs,
		GenLen:          genLen,
		MaxContext:      maxContext,
		FixedGenLen:     true,
	}
}

// uniformBatch draws n unshared requests with prompt lengths uniform
// in [lo, hi].
func uniformBatch(n, lo, hi, genLen int) func(*rand.Rand, *idSource) []moelightning.Request {
	return func(rng *rand.Rand, ids *idSource) []moelightning.Request {
		reqs := make([]moelightning.Request, n)
		for i := range reqs {
			reqs[i] = moelightning.Request{ID: ids.next(), PromptLen: lo + rng.Intn(hi-lo+1), GenLen: genLen}
		}
		return reqs
	}
}

var workloads = []workload{
	{
		// The paper's headline regime: full 32-sequence decode waves
		// with per-step expert paging and CPU attention over paged KV;
		// almost no prefill and no prefix sharing.
		name:   "offline-decode",
		server: serverConfig(8, 4, 40, 64),
		batch:  uniformBatch(32, 6, 10, 40),
	},
	{
		// Packed prefill near MaxContext with two generated tokens: fat
		// GEMMs and causal attention, and the no-sharing control for
		// prefix reuse (distinct ids give distinct prompts).
		name:        "offline-prefill",
		server:      serverConfig(8, 4, 2, 128),
		batch:       uniformBatch(32, 112, 126, 2),
		countPrompt: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// idSource hands out request ids from a seed-derived base, so each seed
// yields its own prompts (prompts hash from the id) and no two requests
// of a run share one.
type idSource struct{ n int }

func newIDSource(rng *rand.Rand) *idSource { return &idSource{n: 1 + rng.Intn(1<<30)<<10} }

func (s *idSource) next() int {
	s.n++
	return s.n
}
