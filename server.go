package moelightning

import (
	"context"
	"fmt"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/faults"
	"moelightning/internal/kvcache"
)

// Streaming-server types, re-exported from the engine. They are
// aliases, so values flow freely between the facade and any code that
// works with the engine package.
type (
	// Token is one streamed generation event: the token's position in
	// its request's output and the generated token id.
	Token = engine.Token
	// Handle follows one submitted request: Tokens() streams tokens as
	// decode steps complete, Wait() blocks for the final output, Done()
	// signals completion.
	Handle = engine.Handle
	// ServerStats snapshots serving metrics: TTFT, TPOT (means and
	// p50/p95/p99), tokens-per-second, wave, deferral and SLO
	// met/miss counts, data movement.
	ServerStats = engine.ServerStats
	// SLO is a request's latency service-level objective: a
	// time-to-first-token budget from submission and a per-output-token
	// budget after the first. Zero fields mean "no target".
	SLO = engine.SLO
	// KVDtype selects the KV cache codec (KVFloat32 or KVInt8).
	KVDtype = kvcache.DType
	// FaultInjector is a deterministic, seeded fault injector threaded
	// through the serving pipeline's expert fetches, KV block
	// allocations and wave stalls (see internal/faults for the
	// injection-point inventory). Build one with NewFaultInjector.
	FaultInjector = faults.Injector
	// FaultsConfig parameterizes a FaultInjector.
	FaultsConfig = faults.Config
	// FaultStats snapshots an injector's trial/fault counters.
	FaultStats = faults.Stats
)

// NewFaultInjector builds a deterministic fault injector for
// ServerConfig.Faults. A nil injector (the default) is inert.
func NewFaultInjector(cfg FaultsConfig) *FaultInjector { return faults.New(cfg) }

// KV cache codecs for ServerConfig.KVDtype.
const (
	// KVFloat32 stores KV rows as raw float32 — the default, bit-exact
	// against every pre-quantization test vector.
	KVFloat32 = kvcache.F32
	// KVInt8 stores KV rows as int8 codes with one float32 scale per
	// 32-value group (§3.3): ~9/32 the cache footprint per token, so
	// the same cache arena holds ~3.5x the context. Attention
	// dequantizes rows in place; decoded tokens can drift from a
	// float32 run within the codec's quantization error.
	KVInt8 = kvcache.Int8
)

// ParseKVDtype maps a knob string ("f32", "float32", "int8") to a
// KVDtype, for CLI flags.
func ParseKVDtype(s string) (KVDtype, error) { return kvcache.ParseDType(s) }

// Serving errors.
var (
	// ErrCanceled is a canceled request's terminal error; the handle
	// still returns the tokens generated before cancellation took
	// effect.
	ErrCanceled = engine.ErrCanceled
	// ErrServerClosed reports a Submit against a closed server.
	ErrServerClosed = engine.ErrServerClosed
	// ErrOverloaded reports a Submit rejected by overload control: the
	// pending queue is at its configured bound (MaxQueuedRequests /
	// MaxQueuedTokens, or the SLO-aware drain projection). The request
	// was never admitted; fail fast and retry or re-route.
	ErrOverloaded = engine.ErrOverloaded
	// ErrDeadlineExceeded reports a request dropped by deadline
	// enforcement: TTFT budget expired while queued, or the TPOT guard
	// judged its decode pace irrecoverable.
	ErrDeadlineExceeded = engine.ErrDeadlineExceeded
	// ErrWaveStalled reports a wave that tripped the WaveTimeout
	// watchdog; a wave that also ignores the cooperative abort marks the
	// server broken and later submits fail fast with this error.
	ErrWaveStalled = engine.ErrWaveStalled
)

// ServerConfig parameterizes a long-lived functional serving instance.
// The zero value plus a Model is usable: sizes default like
// FunctionalOptions (2x2 waves, 8 tokens, 128 context).
type ServerConfig struct {
	// Model is the MoE architecture to serve. Like RunFunctional, the
	// server executes real float32 math, so only tiny configs (TinyMoE)
	// are supported.
	Model ModelConfig
	// Seed makes the synthetic weights deterministic.
	Seed int64
	// MicroBatchSize and NumMicroBatches shape each serving wave
	// (Alg. 2 batching); defaults 2 and 2.
	MicroBatchSize  int
	NumMicroBatches int
	// GenLen is the wave generation length; default 8. Unless
	// FixedGenLen is set, a request whose own GenLen is shorter stops
	// early and frees its KV slot for the next wave.
	GenLen int
	// MaxContext bounds any sequence; default 128.
	MaxContext int
	// Lookahead is the pipeline's CPU-attention lookahead (Alg. 1's
	// default of 2 when zero).
	Lookahead int
	// CacheTokens is the per-micro-batch KV budget in float32-token
	// equivalents of arena capacity; default MicroBatchSize *
	// MaxContext. The batcher spends it in bytes at the KVDtype codec's
	// per-token rate, so a KVInt8 server admits ~32/9 the context of
	// the identical KVFloat32 one.
	CacheTokens int
	// Vocab sizes the synthetic prompts derived from request IDs;
	// default the model's vocabulary.
	Vocab int
	// FixedGenLen makes every request generate exactly GenLen tokens
	// regardless of its own Request.GenLen — the classic closed-batch
	// behavior RunFunctional preserves.
	FixedGenLen bool
	// KVDtype selects the KV cache codec: KVFloat32 (the zero value)
	// or KVInt8 for the §3.3 group-quantized cache.
	KVDtype KVDtype
	// PrefillChunk bounds the wave-packed prefill's per-layer packed
	// batch in prompt tokens (<= 0 selects the engine default).
	PrefillChunk int
	// ExpertResidencyBytes caps the GPU-resident expert-weight pool the
	// engine's pager keeps warm (rounded down to whole expert blocks,
	// minimum one; <= 0 selects two layers' expert sets). Any value is
	// safe: a routed-to expert that is not resident demand-fetches
	// synchronously, so a small budget costs time, never correctness.
	ExpertResidencyBytes int
	// SLOAware switches wave-boundary admission from FIFO-with-deferral
	// to deadline-slack order: the (deferred + newly arrived) queue is
	// sorted most-urgent-first at every boundary, so when capacity runs
	// out it is the slack-rich requests that defer. Off, admission is
	// the classic length-sorted Alg. 2 pass.
	SLOAware bool
	// StarvationWaves bounds starvation under SLO-aware admission: a
	// request deferred this many consecutive boundaries jumps to the
	// front of the admission order (<= 0 selects the engine default of
	// 3). Ignored without SLOAware.
	StarvationWaves int
	// SharedPrefixKV controls shared-prefix KV reuse (default on, the
	// zero value): requests of a wave whose prompts open with identical
	// tokens — e.g. a common system prompt declared via
	// Request.PrefixID/PrefixLen — share refcounted cache blocks with
	// copy-on-write on divergence, skip prefilling the matched tokens,
	// and are charged only their unshared bytes by the Alg. 2 batcher.
	// Output is bit-identical with sharing on or off; set
	// SharedPrefixOff to spend the extra FLOPs and cache anyway.
	SharedPrefixKV SharedPrefixMode
	// MaxQueuedRequests / MaxQueuedTokens bound the admitted-but-not-
	// yet-dispatched set: a Submit that would push past either bound
	// fails fast with ErrOverloaded. <= 0 disables the bound.
	MaxQueuedRequests int
	MaxQueuedTokens   int
	// SLOAwareShed sheds a submission (ErrOverloaded) when the queue's
	// projected drain time — from the server's measured generation rate
	// — already exceeds every TTFT budget the submission carries.
	SLOAwareShed bool
	// EnforceDeadlines fails queued requests whose TTFT budget expired
	// before a wave picked them up (ErrDeadlineExceeded), sparing the
	// prefill; TPOTGuard retires decoding sequences whose pace can no
	// longer meet their TPOT budget, bit-identically for survivors.
	EnforceDeadlines bool
	TPOTGuard        bool
	// WaveTimeout arms the wave watchdog (ErrWaveStalled): a stalled
	// wave is cooperatively aborted, and a wedged one is abandoned so
	// Close never hangs. 0 disables the watchdog.
	WaveTimeout time.Duration
	// Faults threads a deterministic fault injector (NewFaultInjector)
	// through every wave's pipeline. Nil — the default — injects
	// nothing and installs no hooks.
	Faults *FaultInjector
}

// SharedPrefixMode selects whether the KV cache shares identical
// prompt prefixes across a wave's requests. The zero value is ON so
// the facade defaults to sharing.
type SharedPrefixMode int

const (
	// SharedPrefixOn enables shared-prefix KV reuse (the default).
	SharedPrefixOn SharedPrefixMode = iota
	// SharedPrefixOff disables it: every request prefills and caches
	// its full prompt privately.
	SharedPrefixOff
)

func (c *ServerConfig) defaults() {
	if c.MicroBatchSize <= 0 {
		c.MicroBatchSize = 2
	}
	if c.NumMicroBatches <= 0 {
		c.NumMicroBatches = 2
	}
	if c.GenLen <= 0 {
		c.GenLen = 8
	}
	if c.MaxContext <= 0 {
		c.MaxContext = 128
	}
	if c.CacheTokens <= 0 {
		c.CacheTokens = c.MicroBatchSize * c.MaxContext
	}
}

// Server is the long-lived streaming inference API over the functional
// CGOPipe engine. NewServer builds weights and memory arenas once;
// Submit admits requests at any time and returns a Handle whose
// Tokens() channel carries tokens as decode steps complete; an
// admission loop re-runs the Alg. 2 batcher over (deferred + newly
// arrived) requests at every wave boundary; Close drains and shuts
// down.
type Server struct {
	cfg      ServerConfig
	w        *engine.Weights
	eng      *engine.Server
	vocab    int // effective prompt vocabulary (Vocab or the model's)
	cacheCap int
}

// NewServer validates the configuration, builds the weights and arenas,
// and starts the serving loop.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg.defaults()
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model.TotalParams() > 50_000_000 {
		return nil, fmt.Errorf("moelightning: %s has %d parameters; the functional engine is for tiny configs (use TinyMoE)",
			cfg.Model.Name, cfg.Model.TotalParams())
	}

	vocab := cfg.Vocab
	if vocab <= 0 {
		vocab = cfg.Model.VocabSize
	}
	cpu, gpu, pinned, cacheArena := engine.NewArenas(cfg.Model, cfg.ExpertResidencyBytes,
		cfg.MicroBatchSize*cfg.NumMicroBatches, cfg.MaxContext)
	w, err := engine.NewRandomWeights(cpu, cfg.Model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewServer(w, gpu, pinned, cacheArena, engine.ServeConfig{
		NumMicroBatches:      cfg.NumMicroBatches,
		MicroBatchSize:       cfg.MicroBatchSize,
		GenLen:               cfg.GenLen,
		CacheTokens:          cfg.CacheTokens,
		MaxContext:           cfg.MaxContext,
		Lookahead:            cfg.Lookahead,
		Vocab:                vocab,
		HonorRequestGenLen:   !cfg.FixedGenLen,
		KVDtype:              cfg.KVDtype,
		PrefillChunk:         cfg.PrefillChunk,
		ExpertResidencyBytes: cfg.ExpertResidencyBytes,
		SLOAware:             cfg.SLOAware,
		StarvationWaves:      cfg.StarvationWaves,
		SharedPrefixKV:       cfg.SharedPrefixKV == SharedPrefixOn,
		MaxQueuedRequests:    cfg.MaxQueuedRequests,
		MaxQueuedTokens:      cfg.MaxQueuedTokens,
		SLOAwareShed:         cfg.SLOAwareShed,
		EnforceDeadlines:     cfg.EnforceDeadlines,
		TPOTGuard:            cfg.TPOTGuard,
		WaveTimeout:          cfg.WaveTimeout,
		Faults:               cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, w: w, eng: eng, vocab: vocab, cacheCap: cacheArena.Capacity()}, nil
}

// Submit admits one request. Canceling ctx cancels the request: queued,
// it is dropped at the next wave boundary; mid-generation, its sequence
// retires at the next decode-step boundary and its KV slot is freed,
// without perturbing any other request's tokens. The handle then
// finishes with ErrCanceled, returning the tokens streamed so far.
func (s *Server) Submit(ctx context.Context, req Request) (*Handle, error) {
	return s.eng.Submit(req, ctxDone(ctx))
}

// SubmitSLO admits one request carrying a latency SLO. The SLO is
// accounted in Stats (met / TTFT miss / TPOT miss over finished
// requests) and, when the server runs with SLOAware admission, drives
// the request's wave-boundary priority via its deadline slack.
func (s *Server) SubmitSLO(ctx context.Context, req Request, slo SLO) (*Handle, error) {
	return s.eng.SubmitSLO(req, slo, ctxDone(ctx))
}

// SubmitBatch admits a group of requests atomically: they reach the
// same wave-boundary batching decision together, like a closed queue.
// ctx cancels the whole group.
func (s *Server) SubmitBatch(ctx context.Context, reqs []Request) ([]*Handle, error) {
	return s.eng.SubmitBatch(reqs, ctxDone(ctx))
}

// Stats snapshots the server's serving metrics.
func (s *Server) Stats() ServerStats { return s.eng.Stats() }

// Close stops admission, serves every request already submitted, shuts
// the engine down, and returns the first wave error if any occurred. It
// blocks until the drain completes and is safe to call more than once.
func (s *Server) Close() error { return s.eng.Close() }

func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}
