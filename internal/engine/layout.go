// Package engine is the functional MoE inference engine: a real (tiny-
// scale) MoE transformer that executes prefill and CGOPipe decode over
// explicit memory arenas, with one worker goroutine per hardware lane.
// Its output is verified token-for-token against a sequential reference
// implementation, demonstrating that the paper's schedule, paging and
// memory management preserve model semantics.
package engine

import (
	"fmt"

	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/tensor"
)

// Layout maps a layer's flat weight region to its tensors. The region
// is ordered so the attention projections come first: page 1 of the
// paging scheme then suffices for pre-attention (§4.1).
type Layout struct {
	cfg model.Config

	attnNorm, wq, wk, wv, wo int
	ffnNorm, router          int
	expertBase, expertSize   int
	gate, up, down           int // offsets within one expert
	total                    int
}

// NewLayout computes the offsets for a model config.
func NewLayout(cfg model.Config) Layout {
	h, h2 := cfg.Hidden, cfg.Intermediate
	q, kv := cfg.QDim(), cfg.KVDim()
	var l Layout
	l.cfg = cfg
	off := 0
	next := func(n int) int { o := off; off += n; return o }
	l.attnNorm = next(h)
	l.wq = next(q * h)
	l.wk = next(kv * h)
	l.wv = next(kv * h)
	l.wo = next(h * q)
	l.ffnNorm = next(h)
	l.router = next(cfg.Experts * h)
	l.gate, l.up, l.down = 0, h2*h, 2*h2*h
	l.expertSize = 3 * h2 * h
	l.expertBase = next(cfg.Experts * l.expertSize)
	l.total = off
	return l
}

// LayerFloats is the flat size of one layer's weights.
func (l Layout) LayerFloats() int { return l.total }

// AttnFloats is the prefix of the region holding everything
// pre-attention needs (norm + QKV projections).
func (l Layout) AttnFloats() int { return l.wo }

// SharedFloats is the prefix of the region every token touches
// regardless of routing — norms, Q/K/V/O projections and the router.
// The expert FFN blocks after it are paged per expert, so only this
// prefix still moves through the whole-layer double buffer.
func (l Layout) SharedFloats() int { return l.expertBase }

// ExpertFloats is the flat size of one expert's gate+up+down block —
// the granule of expert-weight paging.
func (l Layout) ExpertFloats() int { return l.expertSize }

// ExpertBounds returns the [lo, hi) float range of expert e's block
// within a full layer region, for carving pager source slices.
func (l Layout) ExpertBounds(e int) (lo, hi int) {
	if e < 0 || e >= l.cfg.Experts {
		panic(fmt.Sprintf("engine: expert %d out of %d", e, l.cfg.Experts))
	}
	lo = l.expertBase + e*l.expertSize
	return lo, lo + l.expertSize
}

// ResidencySlots converts an ExpertResidencyBytes budget into a pager
// slot count. A non-positive budget selects the default of two full
// layers' expert sets (the computing layer plus a prefetched-ahead
// one, mirroring the shared region's double buffer); any value is
// clamped to [1, Layers*Experts] — more slots than the model has
// expert blocks buys nothing.
func (l Layout) ResidencySlots(bytes int) int {
	all := l.cfg.Layers * l.cfg.Experts
	n := 2 * l.cfg.Experts
	if bytes > 0 {
		n = bytes / (4 * l.expertSize)
	}
	if n < 1 {
		n = 1
	}
	if n > all {
		n = all
	}
	return n
}

// NewArenas allocates the arenas for serving model m in waves of up to
// seqs sequences of maxContext tokens. The CPU arena holds every layer's
// weights. The GPU and pinned arenas hold the double-buffered shared
// region, the expert residency pool (and its per-slot pinned staging)
// and the per-micro-batch transfer buffers: 2*LayerFloats covers the
// first two at the default residency, and the slot term covers any
// larger expertResidencyBytes. The cache arena holds K and V for every
// sequence with 2x headroom.
func NewArenas(m model.Config, expertResidencyBytes, seqs, maxContext int) (cpu, gpu, pinned, cache *memory.Arena) {
	l := NewLayout(m)
	weights := 2*l.LayerFloats() + l.ResidencySlots(expertResidencyBytes)*l.ExpertFloats() + 4<<20
	return memory.NewArena("cpu", m.Layers*l.LayerFloats()+4<<20),
		memory.NewArena("gpu", weights),
		memory.NewArena("pinned", weights),
		memory.NewArena("kvcache", 2*seqs*maxContext*m.KVDim()*2+4<<20)
}

// Views over a layer's flat data. Weights are stored transposed
// ([out, in]) for MatMulT.

func (l Layout) AttnNorm(data []float32) []float32 {
	return data[l.attnNorm : l.attnNorm+l.cfg.Hidden]
}

func (l Layout) Wq(data []float32) tensor.Mat {
	return tensor.FromSlice(l.cfg.QDim(), l.cfg.Hidden, data[l.wq:l.wk])
}

func (l Layout) Wk(data []float32) tensor.Mat {
	return tensor.FromSlice(l.cfg.KVDim(), l.cfg.Hidden, data[l.wk:l.wv])
}

func (l Layout) Wv(data []float32) tensor.Mat {
	return tensor.FromSlice(l.cfg.KVDim(), l.cfg.Hidden, data[l.wv:l.wo])
}

func (l Layout) Wo(data []float32) tensor.Mat {
	return tensor.FromSlice(l.cfg.Hidden, l.cfg.QDim(), data[l.wo:l.ffnNorm])
}

func (l Layout) FFNNorm(data []float32) []float32 {
	return data[l.ffnNorm : l.ffnNorm+l.cfg.Hidden]
}

func (l Layout) Router(data []float32) tensor.Mat {
	return tensor.FromSlice(l.cfg.Experts, l.cfg.Hidden, data[l.router:l.expertBase])
}

// Expert returns the gate, up and down projections of expert e.
func (l Layout) Expert(data []float32, e int) (gate, up, down tensor.Mat) {
	if e < 0 || e >= l.cfg.Experts {
		panic(fmt.Sprintf("engine: expert %d out of %d", e, l.cfg.Experts))
	}
	base := l.expertBase + e*l.expertSize
	h, h2 := l.cfg.Hidden, l.cfg.Intermediate
	gate = tensor.FromSlice(h2, h, data[base+l.gate:base+l.up])
	up = tensor.FromSlice(h2, h, data[base+l.up:base+l.down])
	down = tensor.FromSlice(h, h2, data[base+l.down:base+l.expertSize])
	return gate, up, down
}

// ExpertWeights views a standalone expert block (ExpertFloats long) as
// its gate, up and down projections — the pager-slot counterpart of
// Expert, which indexes a full layer region.
func (l Layout) ExpertWeights(data []float32) (gate, up, down tensor.Mat) {
	h, h2 := l.cfg.Hidden, l.cfg.Intermediate
	gate = tensor.FromSlice(h2, h, data[l.gate:l.up])
	up = tensor.FromSlice(h2, h, data[l.up:l.down])
	down = tensor.FromSlice(h, h2, data[l.down:l.expertSize])
	return gate, up, down
}
