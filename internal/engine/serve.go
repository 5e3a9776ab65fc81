package engine

import (
	"time"

	"moelightning/internal/faults"
	"moelightning/internal/kvcache"
)

// ServeConfig parameterizes wave-based batch serving: the whole request
// queue is processed in waves, each wave formed by the Alg. 2 batcher
// into balanced micro-batches and run through a fresh CGOPipe pipeline.
type ServeConfig struct {
	// NumMicroBatches and MicroBatchSize shape each wave (Alg. 2's n_ub
	// and ubs).
	NumMicroBatches int
	MicroBatchSize  int
	// GenLen is tokens to generate per request.
	GenLen int
	// CacheTokens is the per-micro-batch KV budget, in float32-token
	// equivalents of arena capacity: the Alg. 2 batcher spends it in
	// bytes at the serving codec's kvcache.TokenBytes rate, so an int8
	// wave admits ~32/9 the context of the identical float32 config.
	CacheTokens int
	// MaxContext bounds any single sequence (prompt + generation).
	MaxContext int
	// Lookahead is the pipeline's CPU-attention lookahead.
	Lookahead int
	// Vocab sizes the synthetic prompts derived from request IDs.
	Vocab int
	// HonorRequestGenLen lets a request's own GenLen (when 0 < GenLen <
	// the wave's GenLen) end it early, retiring its sequence and freeing
	// its KV blocks mid-wave. Off, every request generates exactly
	// GenLen tokens — the classic closed-batch behavior RunFunctional
	// keeps.
	HonorRequestGenLen bool
	// KVDtype selects the KV cache codec every wave's pipeline uses:
	// kvcache.F32 (the zero value; bit-exact) or kvcache.Int8 (§3.3
	// group quantization — ~9/32 the cache footprint per token, so the
	// same arena holds ~3.5x the context).
	KVDtype kvcache.DType
	// PrefillChunk bounds the wave-packed prefill's per-layer packed
	// batch in prompt tokens (Config.PrefillChunk; <= 0 selects the
	// engine default).
	PrefillChunk int
	// ExpertResidencyBytes caps every wave pipeline's GPU-resident
	// expert-weight pool (Config.ExpertResidencyBytes; <= 0 selects two
	// layers' expert sets). Output is bit-identical for any value.
	ExpertResidencyBytes int
	// SLOAware switches wave-boundary admission from FIFO-with-deferral
	// to deadline-slack order: at every wave boundary the (deferred +
	// newly arrived) queue is sorted most-urgent-first (AdmissionOrder)
	// and placed by batching.BatchOrdered, so when capacity runs out it
	// is the slack-rich requests that defer. Off, admission is exactly
	// the classic length-sorted Alg. 2 pass.
	SLOAware bool
	// StarvationWaves bounds starvation under SLO-aware admission: a
	// request deferred this many consecutive wave boundaries jumps to
	// the front of the admission order (<= 0 selects
	// DefaultStarvationWaves). Ignored without SLOAware.
	StarvationWaves int
	// SharedPrefixKV enables shared-prefix KV reuse inside every wave's
	// pipeline (Config.SharedPrefix) and makes the Alg. 2 batcher charge
	// only the unshared bytes of a request whose declared prefix is
	// already placed in the wave. Bit-identical output either way.
	SharedPrefixKV bool
	// MaxQueuedRequests / MaxQueuedTokens bound the admitted-but-not-yet-
	// dispatched set: a Submit that would push past either bound fails
	// fast with ErrOverloaded instead of queueing toward a blown
	// deadline. <= 0 disables the bound.
	MaxQueuedRequests int
	MaxQueuedTokens   int
	// SLOAwareShed adds a projection-based shed on top of the hard
	// bounds: once the server has a measured generation rate, a batch
	// whose projected queue drain time exceeds every one of its TTFT
	// budgets is rejected with ErrOverloaded at Submit.
	SLOAwareShed bool
	// EnforceDeadlines fails queued requests whose TTFT budget has
	// already expired at the wave boundary (ErrDeadlineExceeded), before
	// any prefill is wasted on them.
	EnforceDeadlines bool
	// TPOTGuard retires decoding sequences whose elapsed decode time
	// already exceeds their whole TPOT budget (ErrDeadlineExceeded),
	// through the normal stop path — survivors stay bit-identical.
	TPOTGuard bool
	// WaveTimeout arms the wave watchdog: a wave running longer is asked
	// to abort cooperatively; one that ignores the abort for another
	// WaveTimeout+1s is abandoned and the server marks itself broken
	// (ErrWaveStalled). 0 disables the watchdog.
	WaveTimeout time.Duration
	// Faults threads a deterministic fault injector through every wave's
	// pipeline (expert-pager fetches, KV block allocation, wave stalls).
	// Nil means no injection: the hooks are never installed.
	Faults *faults.Injector
}
