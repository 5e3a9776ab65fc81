package main

import (
	"fmt"
	"slices"

	"moelightning"
	"moelightning/internal/engine"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
)

// newWeights builds the weights a server built from cfg serves: the
// synthetic weights are a pure function of the model and the seed.
func newWeights(cfg moelightning.ServerConfig) (*engine.Weights, error) {
	layerFloats := engine.NewLayout(cfg.Model).LayerFloats()
	cpu := memory.NewArena("cpu", cfg.Model.Layers*layerFloats+4<<20)
	return engine.NewRandomWeights(cpu, cfg.Model, cfg.Seed)
}

// checkSamples regenerates every sample with the sequential f32
// reference engine, in one batch, and returns the ids of the samples
// whose tokens differ.
func checkSamples(cfg moelightning.ServerConfig, samples []sample) ([]int, error) {
	if len(samples) == 0 {
		return nil, nil
	}
	w, err := newWeights(cfg)
	if err != nil {
		return nil, fmt.Errorf("reference weights: %w", err)
	}
	reqs := make([]moelightning.Request, len(samples))
	for i, s := range samples {
		reqs[i] = s.req
	}
	arena := memory.NewArena("ref", refCacheFloats(cfg.Model, len(samples), cfg.MaxContext))
	ref, err := engine.NewReferenceKV(w, arena, len(samples), cfg.MaxContext, kvcache.F32)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	want, err := ref.Generate(engine.PromptsFromRequests(reqs, cfg.Model.VocabSize), cfg.GenLen)
	if err != nil {
		return nil, fmt.Errorf("reference generate: %w", err)
	}
	var bad []int
	for i, s := range samples {
		if !slices.Equal(s.got, want[i]) {
			bad = append(bad, s.req.ID)
		}
	}
	return bad, nil
}

// refCacheFloats sizes the reference's KV arena: keys and values for
// every layer of every sequence at full context, block-rounded, plus
// slack.
func refCacheFloats(m model.Config, seqs, maxContext int) int {
	blocks := (maxContext + kvcache.DefaultBlockTokens - 1) / kvcache.DefaultBlockTokens
	return m.Layers*seqs*blocks*kvcache.DefaultBlockTokens*m.KVDim()*2 + 1<<20
}
