package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/metrics"
	"moelightning/internal/workload"
)

// ErrCanceled is the terminal error of a request canceled by its
// submitter. The handle still returns the tokens generated before the
// cancellation took effect.
var ErrCanceled = errors.New("engine: request canceled")

// ErrServerClosed reports a Submit against a closed server.
var ErrServerClosed = errors.New("engine: server closed")

// ErrNoProgress reports that the batcher aborted the exact same request
// set in two consecutive waves: those requests are being starved and
// would defer forever, so they are failed instead of looped.
var ErrNoProgress = errors.New("engine: batcher made no progress (same request set aborted twice in a row)")

// ErrOverloaded reports a Submit rejected by overload control: the
// pending queue is at its configured request or token bound (or, under
// SLO-aware shedding, projected to drain too slowly for the batch's
// TTFT budgets). The request was never admitted — fail fast and let the
// client retry or re-route instead of queueing toward a blown deadline.
var ErrOverloaded = errors.New("engine: server overloaded")

// ErrDeadlineExceeded reports a request dropped by deadline
// enforcement: its TTFT budget expired while it was still queued (no
// prefill was wasted on it), or — under the TPOT guard — its decode
// pace could no longer meet the TPOT budget even if every remaining
// step were free. Tokens generated before the drop are still returned.
var ErrDeadlineExceeded = errors.New("engine: deadline exceeded")

// ErrWaveStalled reports a wave that exceeded the server's watchdog
// timeout. Its requests fail with this error; if the wave also ignored
// the cooperative abort, the server marks itself broken (the wedged
// pipeline still owns the arenas) and fails all later submits fast.
var ErrWaveStalled = errors.New("engine: wave stalled past watchdog timeout")

// Token is one streamed generation event.
type Token struct {
	// Index is the token's position in the request's output (0-based).
	Index int
	// ID is the generated token id.
	ID int
}

// Handle follows one submitted request through the server.
type Handle struct {
	req     workload.Request
	cancel  <-chan struct{}
	genLen  int // effective generation length for this request
	slo     SLO
	qtokens int    // prompt + effective gen tokens: the queue-bound weight
	key     uint64 // unique per submission: the planner's no-progress identity

	// queued marks the handle as counted against the server's queue
	// bounds. Guarded by the SERVER's mu (it moves with queuedReqs /
	// queuedTokens), not h.mu.
	queued bool

	done chan struct{}

	mu                sync.Mutex
	tokens            chan Token // lazily allocated; see tokensLocked
	out               []int
	err               error
	deferred          bool
	deferrals         int
	wave              int // wave that ran the request; 0 while queued
	finished          bool
	tpotHopeless      bool // TPOT guard verdict: budget irrecoverable
	submitted         time.Time
	firstTok, lastTok time.Time
}

// closedTokens is the shared pre-closed channel handed to consumers of
// requests that finished before producing a token (canceled while
// queued, failed at admission): those handles never allocate a
// generation-length buffer.
var closedTokens = func() chan Token {
	ch := make(chan Token)
	close(ch)
	return ch
}()

// handleKeys numbers handles for AdmissionItem.Key. Keys need only be
// unique, so one process-wide counter serves every server.
var handleKeys atomic.Uint64

func newHandle(req workload.Request, cancel <-chan struct{}, genLen int, slo SLO) *Handle {
	if genLen < 0 {
		genLen = 0
	}
	return &Handle{
		req:       req,
		cancel:    cancel,
		genLen:    genLen,
		slo:       slo,
		key:       handleKeys.Add(1),
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
}

// Request returns the submitted request.
func (h *Handle) Request() workload.Request { return h.req }

// ID returns the request's id.
func (h *Handle) ID() int { return h.req.ID }

// Wave returns the number of the wave the request was dispatched into,
// or 0 while it is queued and if it finished without running.
func (h *Handle) Wave() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.wave
}

// Tokens streams generated tokens as their decode steps complete — the
// first token arrives right after the wave's prefill, long before the
// wave's final step. The channel is buffered for the request's
// effective generation length (the engine never blocks on a slow
// consumer) and is closed when the request finishes. The buffer is
// allocated on first use: a request that finishes without producing a
// token — canceled while queued, failed at admission — returns a shared
// closed channel and never pays for one.
func (h *Handle) Tokens() <-chan Token {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tokensLocked()
}

// tokensLocked returns the token channel, allocating it on demand with
// capacity for the request's remaining generation (so pushes from the
// serving goroutine can never block). Callers hold h.mu.
func (h *Handle) tokensLocked() chan Token {
	if h.tokens == nil {
		if h.finished {
			h.tokens = closedTokens
		} else {
			h.tokens = make(chan Token, h.genLen)
		}
	}
	return h.tokens
}

// Done is closed when the request finishes: completed, canceled or
// failed.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the request finishes and returns its generated
// tokens. A canceled request returns the tokens produced before the
// cancellation took effect alongside ErrCanceled.
func (h *Handle) Wait() ([]int, error) {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.out, h.err
}

// Err returns the request's terminal error: nil while it is still
// running or after success, ErrCanceled after cancellation, or the wave
// error that failed it.
func (h *Handle) Err() error {
	select {
	case <-h.done:
	default:
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// push records and streams one token. Called only from the serving
// goroutine; the buffered channel makes the send non-blocking. A push
// after finish is dropped — an abandoned (watchdog-wedged) wave that
// later unwedges must not write into handles the watchdog failed.
func (h *Handle) push(index, id int) {
	now := time.Now()
	h.mu.Lock()
	if h.finished {
		h.mu.Unlock()
		return
	}
	h.out = append(h.out, id)
	if index == 0 {
		h.firstTok = now
	}
	h.lastTok = now
	ch := h.tokensLocked()
	h.mu.Unlock()
	select {
	case ch <- Token{Index: index, ID: id}:
	default: // unreachable: capacity covers the full generation
	}
}

func (h *Handle) canceled() bool {
	if h.cancel == nil {
		return false
	}
	select {
	case <-h.cancel:
		return true
	default:
		return false
	}
}

func (h *Handle) finish(err error) {
	if h.seal(err) {
		h.wake()
	}
}

// seal records err as the request's outcome and drops every later push;
// it reports false if the handle was already sealed. A true return
// obliges the caller to wake the handle.
func (h *Handle) seal(err error) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.finished {
		return false
	}
	h.finished = true
	h.err = err
	if h.tokens == nil {
		// Never streamed and no consumer asked yet: point Tokens() at the
		// shared closed channel instead of allocating one to close.
		h.tokens = closedTokens
	}
	return true
}

// wake closes a sealed handle's token stream and Done channel.
func (h *Handle) wake() {
	h.mu.Lock()
	ch := h.tokens
	h.mu.Unlock()
	if ch != closedTokens {
		close(ch)
	}
	close(h.done)
}

// ServerStats is a snapshot of a server's serving metrics.
type ServerStats struct {
	// Request accounting: admitted, finished successfully, canceled,
	// and failed (wave error / impossible to place).
	Submitted, Completed, Canceled, Failed int
	// Waves is how many pipeline waves completed; Deferred counts
	// requests pushed to a later wave at least once (Alg. 2's aborted
	// list).
	Waves, Deferred int
	// GeneratedTokens counts every token streamed to a handle.
	GeneratedTokens int
	// PrefillTokens counts prompt tokens prefilled across all waves
	// (a request retired by prefill-time KV exhaustion contributes
	// none); PrefillTokensPerSecond is prompt-phase throughput over the
	// time the waves spent in the packed prefill pass.
	PrefillTokens          int
	PrefillTokensPerSecond float64
	// PrefixHitTokens counts prompt tokens served by mapping a shared
	// resident prefix instead of prefilling them; PrefixHitRatio is
	// their share of all prompt tokens handled (hit + prefilled).
	// CowCopies counts copy-on-write block copies triggered by writes
	// into shared blocks.
	PrefixHitTokens int
	PrefixHitRatio  float64
	CowCopies       int64
	// AvgTTFT is the mean time from Submit to a request's first token;
	// AvgTPOT the mean time per output token after the first.
	AvgTTFT, AvgTPOT time.Duration
	// Latency percentiles over the same populations as the means, read
	// from fixed-bucket histograms (metrics.NewLatencyHistogram): time
	// to first token from Submit, and per-output-token time after the
	// first.
	TTFTP50, TTFTP95, TTFTP99 time.Duration
	TPOTP50, TPOTP95, TPOTP99 time.Duration
	// SLO accounting over finished requests that carried an SLO
	// (canceled requests are excluded — the client walked away, the
	// server neither met nor missed). SLOMet counts requests inside
	// every stated target; SLOMissTTFT / SLOMissTPOT count the blown
	// dimension (a request can miss both). A failed SLO request counts
	// as a TTFT miss: its first token never came.
	SLORequests, SLOMet      int
	SLOMissTTFT, SLOMissTPOT int
	// MaxDeferrals is the most wave boundaries any single request has
	// been passed over — the observed starvation bound.
	MaxDeferrals int
	// Overload / robustness accounting. Shed counts requests rejected at
	// Submit by overload control (never admitted, not in Submitted);
	// DeadlineDropped counts admitted requests dropped by deadline
	// enforcement (queued past their TTFT budget, or retired by the TPOT
	// guard); WaveTimeouts counts waves that tripped the watchdog;
	// KVLeaks counts waves whose end-of-wave KV-pool audit found blocks
	// not returned to the free list.
	Shed, DeadlineDropped, WaveTimeouts, KVLeaks int
	// Fault accounting from the expert pager: transient fetch faults
	// absorbed by retry, and fetches that failed past the retry budget
	// (each such failure retires the sequences routed to that expert).
	FaultRetries, FaultFailures int64
	// QueuedRequests / QueuedTokens are the CURRENT queue-bound usage
	// (admitted, not yet dispatched into a wave), not totals.
	QueuedRequests, QueuedTokens int
	// TokensPerSecond is generation throughput over busy (in-wave) time.
	TokensPerSecond float64
	// Data-movement totals across all waves (bytes / pages).
	HtoDBytes, DtoHBytes, PagesMoved int64
	// Expert weight-paging totals across all waves: bytes of expert
	// blocks fetched into the residency pool, and the warm-hit/miss
	// split of expert acquisitions.
	WeightBytesFetched       int64
	ExpertHits, ExpertMisses int64
}

// Server is the long-lived serving engine: weights and arenas are built
// once and persist across waves. Submit admits requests at any time; the
// admission loop re-runs the Alg. 2 batcher over (deferred + newly
// arrived) requests at every wave boundary and streams each token to its
// handle as the producing decode step completes.
type Server struct {
	w                  *Weights
	gpu, pinned, cache *memory.Arena
	cfg                ServeConfig

	submitCh chan []*Handle
	closeCh  chan struct{}
	doneCh   chan struct{}

	mu       sync.Mutex
	closed   bool
	inflight int // submits past the closed check, not yet enqueued
	firstErr error
	stats    serverAccum

	// Overload-control ledger: handles admitted but not yet dispatched
	// into a wave (deferred handles stay counted until they dispatch or
	// finish), and the sum of their qtokens.
	queuedReqs   int
	queuedTokens int
	// dispatched counts waves started (Stats().Waves counts completed
	// ones): it numbers waves for Handle.Wave and wave errors.
	dispatched int
	// broken is set when a wedged wave forces the watchdog to abandon
	// the pipeline: the arenas are unrecoverable, so every later submit
	// and wave fails fast with this error.
	broken error
}

// serverAccum is the mutable state behind ServerStats: the counters
// it reports as-is, plus the sums the derived fields are computed from.
type serverAccum struct {
	ServerStats
	prefillTime, busy  time.Duration
	ttftSum, tpotSum   time.Duration
	ttftN, tpotN       int
	ttftHist, tpotHist *metrics.Histogram // lazily allocated
}

// rate is generation throughput over busy (in-wave) time; 0 before the
// first wave finishes.
func (a *serverAccum) rate() float64 {
	if a.busy <= 0 {
		return 0
	}
	return float64(a.GeneratedTokens) / a.busy.Seconds()
}

// BatchConfig builds the Alg. 2 configuration for a server: the KV
// term is budgeted in BYTES — CacheTokens float32-token-equivalents of
// per-micro-batch arena capacity, spent at the serving codec's
// kvcache.TokenBytes rate — so an int8 wave admits ~32/9 the context
// of the identical float32 config instead of leaving the arena's
// headroom idle. For a float32 codec the byte check reduces exactly to
// the classic token check.
func BatchConfig(cfg ServeConfig, kvDim int) batching.Config {
	return batching.Config{
		NumMicroBatches: cfg.NumMicroBatches,
		MicroBatchSize:  cfg.MicroBatchSize,
		GenLen:          cfg.GenLen,
		CacheTokens:     cfg.CacheTokens,
		TokenBytes:      kvcache.TokenBytes(kvDim, cfg.KVDtype),
		CacheBytes:      cfg.CacheTokens * kvcache.TokenBytes(kvDim, kvcache.F32),
		SharedPrefix:    cfg.SharedPrefixKV,
		BlockTokens:     kvcache.DefaultBlockTokens,
	}
}

// NewServer builds the serving engine over explicit arenas and starts
// its admission loop. The weights live in their own arena and persist;
// the GPU, pinned and cache arenas are reset between waves.
func NewServer(w *Weights, gpu, pinned, cacheArena *memory.Arena, cfg ServeConfig) (*Server, error) {
	if cfg.Vocab <= 0 {
		cfg.Vocab = w.Cfg.VocabSize
	}
	if cfg.GenLen < 0 {
		return nil, fmt.Errorf("engine: negative GenLen %d", cfg.GenLen)
	}
	if err := BatchConfig(cfg, w.Cfg.KVDim()).Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		w: w, gpu: gpu, pinned: pinned, cache: cacheArena,
		cfg:      cfg,
		submitCh: make(chan []*Handle, 64),
		closeCh:  make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	go s.loop()
	return s, nil
}

// EffGenLen resolves a request's generation length under a server
// config: with HonorRequestGenLen, a request's own GenLen (capped at the
// wave length) wins; otherwise every request runs the full wave length.
func EffGenLen(cfg ServeConfig, r workload.Request) int {
	if cfg.HonorRequestGenLen && r.GenLen > 0 && r.GenLen < cfg.GenLen {
		return r.GenLen
	}
	return cfg.GenLen
}

// Submit admits one request. cancel (may be nil) cancels the request
// when closed: queued requests are dropped at the next wave boundary,
// in-flight requests retire at the next decode-step boundary, freeing
// their KV blocks; either way the handle finishes with ErrCanceled.
func (s *Server) Submit(req workload.Request, cancel <-chan struct{}) (*Handle, error) {
	return s.SubmitSLO(req, SLO{}, cancel)
}

// SubmitSLO admits one request carrying a latency SLO: the server
// counts the request into its SLO-attainment stats, and — when the
// server runs SLO-aware admission — prioritizes it at wave boundaries
// by its remaining TTFT slack.
func (s *Server) SubmitSLO(req workload.Request, slo SLO, cancel <-chan struct{}) (*Handle, error) {
	hs, err := s.SubmitBatchSLO([]workload.Request{req}, []SLO{slo}, cancel)
	if err != nil {
		return nil, err
	}
	return hs[0], nil
}

// SubmitBatch admits a group of requests atomically: they reach the same
// wave-boundary batching decision together, exactly as a closed queue
// would (the RunFunctional compatibility wrapper relies on this). The
// cancel channel, if non-nil, cancels the whole group.
func (s *Server) SubmitBatch(reqs []workload.Request, cancel <-chan struct{}) ([]*Handle, error) {
	return s.SubmitBatchSLO(reqs, nil, cancel)
}

// SubmitBatchSLO is SubmitBatch with a per-request SLO. slos may be nil
// (no targets) or must match reqs in length.
func (s *Server) SubmitBatchSLO(reqs []workload.Request, slos []SLO, cancel <-chan struct{}) ([]*Handle, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("engine: empty request batch")
	}
	if slos != nil && len(slos) != len(reqs) {
		return nil, fmt.Errorf("engine: %d SLOs for %d requests", len(slos), len(reqs))
	}
	hs := make([]*Handle, len(reqs))
	demands := make([]Demand, len(reqs))
	for i, r := range reqs {
		var slo SLO
		if slos != nil {
			slo = slos[i]
		}
		hs[i] = newHandle(r, cancel, EffGenLen(s.cfg, r), slo)
		hs[i].qtokens = r.PromptLen + hs[i].genLen
		demands[i] = Demand{ID: r.ID, Tokens: hs[i].qtokens, TTFT: slo.TTFT}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	if s.broken != nil {
		err := s.broken
		s.mu.Unlock()
		return nil, err
	}
	// Overload control: bound the pending set before the batch enters
	// it. The whole batch is admitted or shed atomically.
	if err := CheckSubmit(s.cfg, s.queuedReqs, s.queuedTokens, demands, s.stats.rate()); err != nil {
		s.stats.Shed += len(hs)
		s.mu.Unlock()
		return nil, err
	}
	s.stats.Submitted += len(hs)
	for _, h := range hs {
		h.queued = true
		s.queuedReqs++
		s.queuedTokens += h.qtokens
	}
	// The inflight count keeps the loop alive until this send lands,
	// even if Close races in between: a batch accepted here is always
	// served, never stranded.
	s.inflight++
	s.mu.Unlock()
	s.submitCh <- hs
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	return hs, nil
}

// dequeueLocked releases a handle's claim on the queue bounds: called
// when it dispatches into a wave or finishes while queued. Idempotent;
// callers hold s.mu.
func (s *Server) dequeueLocked(h *Handle) {
	if !h.queued {
		return
	}
	h.queued = false
	s.queuedReqs--
	s.queuedTokens -= h.qtokens
}

// Close stops admission, serves every request already submitted, shuts
// the loop down, and returns the first wave error (if any). It blocks
// until the drain completes and is safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closeCh)
	}
	s.mu.Unlock()
	<-s.doneCh
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// Stats snapshots the server's serving metrics.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.stats
	st := a.ServerStats
	st.QueuedRequests, st.QueuedTokens = s.queuedReqs, s.queuedTokens
	if a.ttftHist != nil {
		st.TTFTP50 = a.ttftHist.Quantile(0.50)
		st.TTFTP95 = a.ttftHist.Quantile(0.95)
		st.TTFTP99 = a.ttftHist.Quantile(0.99)
	}
	if a.tpotHist != nil {
		st.TPOTP50 = a.tpotHist.Quantile(0.50)
		st.TPOTP95 = a.tpotHist.Quantile(0.95)
		st.TPOTP99 = a.tpotHist.Quantile(0.99)
	}
	if a.prefillTime > 0 {
		st.PrefillTokensPerSecond = float64(a.PrefillTokens) / a.prefillTime.Seconds()
	}
	if handled := a.PrefixHitTokens + a.PrefillTokens; handled > 0 {
		st.PrefixHitRatio = float64(a.PrefixHitTokens) / float64(handled)
	}
	if a.ttftN > 0 {
		st.AvgTTFT = a.ttftSum / time.Duration(a.ttftN)
	}
	if a.tpotN > 0 {
		st.AvgTPOT = a.tpotSum / time.Duration(a.tpotN)
	}
	st.TokensPerSecond = a.rate()
	return st
}

// loop is the admission loop: block until work (or close) arrives, admit
// everything queued at the wave boundary, reap canceled queued requests,
// and run one wave over (deferred + newly arrived) requests.
func (s *Server) loop() {
	defer close(s.doneCh)
	var pending []*Handle
	var prevDeferred []uint64
	closing := false
	for {
		if !closing && len(pending) == 0 {
			select {
			case hs := <-s.submitCh:
				pending = append(pending, hs...)
			case <-s.closeCh:
				closing = true
			}
		}
		if !closing {
			select {
			case <-s.closeCh:
				closing = true
			default:
			}
		}
		// Wave-boundary admission: pick up everything queued right now,
		// including submits that raced Close.
		for more := true; more; {
			select {
			case hs := <-s.submitCh:
				pending = append(pending, hs...)
			default:
				more = false
			}
		}
		// Reap requests canceled while still queued.
		var live []*Handle
		for _, h := range pending {
			if h.canceled() {
				s.finalize(h, ErrCanceled)
				continue
			}
			live = append(live, h)
		}
		pending = live
		if len(pending) == 0 {
			if closing {
				// Exit handshake. Read inflight BEFORE draining: a
				// sender enqueues before decrementing, so inflight==0
				// here means every accepted batch already sits in the
				// buffer and the drain below sees it. inflight>0 means
				// a Submit that passed the closed check is mid-send —
				// yield and re-check rather than stranding its handles
				// (or blocking on a channel it may never send to again).
				s.mu.Lock()
				inflight := s.inflight
				s.mu.Unlock()
				for more := true; more; {
					select {
					case hs := <-s.submitCh:
						pending = append(pending, hs...)
					default:
						more = false
					}
				}
				if len(pending) == 0 {
					if inflight == 0 {
						return
					}
					runtime.Gosched()
				}
				continue
			}
			prevDeferred = nil
			continue
		}
		pending, prevDeferred = s.runWave(pending, prevDeferred)
	}
}

// runWave plans the boundary over the pending requests (PlanWave), runs
// one pipeline wave over the admitted ones, and returns the deferred
// remainder plus its keys for the next boundary's no-progress rule.
// Every handle it does not return is finished (completed, canceled or
// failed).
func (s *Server) runWave(pending []*Handle, prevDeferred []uint64) ([]*Handle, []uint64) {
	s.mu.Lock()
	broken := s.broken
	s.mu.Unlock()
	if broken != nil {
		// A wedged wave already abandoned the arenas: no further wave can
		// run. Fail everything still pending with the watchdog's error.
		s.failAll(pending, broken)
		return nil, nil
	}
	items := make([]AdmissionItem, len(pending))
	for i, h := range pending {
		items[i] = AdmissionItem{Request: h.req, Submitted: h.submitted, SLO: h.slo, Deferrals: h.deferrals, Key: h.key}
	}
	plan := PlanWave(items, time.Now(), prevDeferred, s.cfg, BatchConfig(s.cfg, s.w.Cfg.KVDim()))
	for _, f := range plan.Failed {
		if errors.Is(f.Err, ErrDeadlineExceeded) {
			s.mu.Lock()
			s.stats.DeadlineDropped++
			s.mu.Unlock()
			s.finalize(pending[f.Index], f.Err)
		} else {
			s.failAll(pending[f.Index:f.Index+1], f.Err)
		}
	}
	var deferred []*Handle
	for _, i := range plan.Deferred {
		h := pending[i]
		h.deferred = true
		h.deferrals++
		s.mu.Lock()
		s.stats.MaxDeferrals = max(s.stats.MaxDeferrals, h.deferrals)
		s.mu.Unlock()
		deferred = append(deferred, h)
	}
	if len(plan.MicroBatches) == 0 {
		return deferred, plan.DeferredKeys
	}
	var wave []*Handle
	var partition [][]int
	for _, mb := range plan.MicroBatches {
		group := make([]int, len(mb))
		for j, i := range mb {
			group[j] = len(wave)
			wave = append(wave, pending[i])
		}
		partition = append(partition, group)
	}

	waveReqs := make([]workload.Request, len(wave))
	for i, h := range wave {
		waveReqs[i] = h.req
	}
	prompts := PromptsFromRequests(waveReqs, s.cfg.Vocab)

	s.mu.Lock()
	s.dispatched++
	waveNum := s.dispatched
	// The wave's handles leave the queue bounds now — they occupy wave
	// capacity, not queue capacity. Deferred handles stay counted.
	for _, h := range wave {
		s.dequeueLocked(h)
	}
	s.mu.Unlock()
	for _, h := range wave {
		h.mu.Lock()
		h.wave = waveNum
		h.mu.Unlock()
	}
	start := time.Now()
	s.gpu.Reset()
	s.pinned.Reset()
	s.cache.Reset()
	pl, err := NewPipeline(s.w, s.gpu, s.pinned, s.cache, len(wave), Config{
		MaxContext:           s.cfg.MaxContext,
		Lookahead:            s.cfg.Lookahead,
		Partition:            partition,
		KVDtype:              s.cfg.KVDtype,
		PrefillChunk:         s.cfg.PrefillChunk,
		SharedPrefix:         s.cfg.SharedPrefixKV,
		ExpertResidencyBytes: s.cfg.ExpertResidencyBytes,
		Faults:               s.cfg.Faults,
	})
	if err != nil {
		werr := fmt.Errorf("engine: wave %d: %w", waveNum, err)
		s.failAll(wave, werr)
		s.failAll(deferred, werr)
		return nil, nil
	}
	sink := func(seq, index, token int) { wave[seq].push(index, token) }
	stop := func(seq, emitted int) bool {
		h := wave[seq]
		if h.canceled() || emitted >= h.genLen {
			return true
		}
		// TPOT guard: once the time already spent decoding exceeds the
		// request's whole TPOT budget for its full generation, no pace of
		// remaining steps can recover it — retire the sequence through the
		// normal stop path (its KV blocks free, survivors bit-identical)
		// instead of burning wave capacity on a blown deadline.
		if s.cfg.TPOTGuard && h.slo.TPOT > 0 && emitted >= 2 {
			h.mu.Lock()
			hopeless := h.lastTok.Sub(h.firstTok) > h.slo.TPOT*time.Duration(h.genLen-1)
			if hopeless {
				h.tpotHopeless = true
			}
			h.mu.Unlock()
			return hopeless
		}
		return false
	}

	// The wave runs under a watchdog: GenerateStream executes in its own
	// goroutine so a stall (a stuck fetch, a wedged kernel) cannot hang
	// the admission loop — and Close() with it — forever.
	type waveResult struct {
		tokens [][]int
		err    error
	}
	resCh := make(chan waveResult, 1)
	go func() {
		toks, gerr := pl.GenerateStream(prompts, s.cfg.GenLen, sink, stop)
		resCh <- waveResult{toks, gerr}
	}()
	var res waveResult
	if s.cfg.WaveTimeout > 0 {
		timer := time.NewTimer(s.cfg.WaveTimeout)
		select {
		case res = <-resCh:
			timer.Stop()
		case <-timer.C:
			// Phase 1: cooperative abort. The pipeline checks the abort at
			// decode-step and prefill-layer boundaries (and mid-stall), so
			// a slow-but-alive wave returns promptly with the abort error.
			werr := fmt.Errorf("engine: wave %d exceeded the %v watchdog: %w",
				waveNum, s.cfg.WaveTimeout, ErrWaveStalled)
			pl.Abort(werr)
			grace := time.NewTimer(s.cfg.WaveTimeout + time.Second)
			select {
			case res = <-resCh:
				grace.Stop()
				if res.err == nil {
					res.err = werr
				}
				s.mu.Lock()
				s.stats.WaveTimeouts++
				s.mu.Unlock()
			case <-grace.C:
				// Phase 2: the wave ignored the abort — it is wedged INSIDE
				// a step. Abandon the pipeline goroutine (pl.Close would
				// block on its lanes) and mark the server broken: the
				// arenas belong to the wedged wave, so later submits and
				// waves fail fast instead of hanging. finish() and the
				// push() guard keep the abandoned goroutine from touching
				// the failed handles if it ever unwedges.
				s.mu.Lock()
				s.stats.WaveTimeouts++
				s.broken = werr
				if s.firstErr == nil {
					s.firstErr = werr
				}
				s.mu.Unlock()
				s.failAll(wave, werr)
				s.failAll(deferred, werr)
				return nil, nil
			}
		}
	} else {
		res = <-resCh
	}
	tokens, gerr := res.tokens, res.err
	pl.Close() // drains the lanes and the expert prefetcher first, so the counters below are final

	// End-of-wave KV audit: every sequence must have released its blocks
	// (completion, retirement and the abort path all do; ReleaseAll is a
	// no-op then). A leak would silently shrink every later wave.
	pl.ReleaseAll()
	if lerr := pl.KVIdle(); lerr != nil {
		s.mu.Lock()
		s.stats.KVLeaks++
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("engine: wave %d: %w", waveNum, lerr)
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.stats.HtoDBytes += pl.Counters.HtoDBytes.Load()
	s.stats.DtoHBytes += pl.Counters.DtoHBytes.Load()
	s.stats.PagesMoved += pl.Counters.PagesMoved.Load()
	s.stats.WeightBytesFetched += pl.Counters.ExpertPaging.BytesFetched.Load()
	s.stats.ExpertHits += pl.Counters.ExpertPaging.Hits.Load()
	s.stats.ExpertMisses += pl.Counters.ExpertPaging.Misses.Load()
	s.stats.FaultRetries += pl.Counters.ExpertPaging.FetchRetries.Load()
	s.stats.FaultFailures += pl.Counters.ExpertPaging.FetchFailures.Load()
	s.stats.PrefillTokens += pl.PrefillTokens
	s.stats.PrefixHitTokens += int(pl.Counters.PrefixHitTokens.Load())
	s.stats.CowCopies += pl.Counters.CowCopies.Load()
	s.stats.prefillTime += pl.PrefillDuration
	s.mu.Unlock()
	if gerr != nil {
		werr := fmt.Errorf("engine: wave %d: %w", waveNum, gerr)
		s.failAll(wave, werr)
		s.failAll(deferred, werr)
		return nil, nil
	}
	for i, h := range wave {
		h.mu.Lock()
		hopeless := h.tpotHopeless
		h.mu.Unlock()
		switch {
		case pl.SeqErr(i) != nil:
			// Request-scoped failure: the sequence hit KV-pool exhaustion
			// or an unrecoverable expert fetch and was retired (its blocks
			// went back to the survivors), so only this request fails; the
			// wave and its other requests are unaffected.
			s.finalize(h, fmt.Errorf("engine: wave %d: request %d: %w", waveNum, h.req.ID, pl.SeqErr(i)))
		case hopeless:
			s.mu.Lock()
			s.stats.DeadlineDropped++
			s.mu.Unlock()
			s.finalize(h, fmt.Errorf("engine: request %d: TPOT budget (%v) irrecoverable after %d tokens: %w",
				h.req.ID, h.slo.TPOT, len(tokens[i]), ErrDeadlineExceeded))
		case len(tokens[i]) < h.genLen && h.canceled():
			s.finalize(h, ErrCanceled)
		default:
			s.finalize(h, nil)
		}
	}
	s.mu.Lock()
	s.stats.Waves++
	s.stats.busy += time.Since(start)
	s.mu.Unlock()
	return deferred, plan.DeferredKeys
}

// finalize finishes a handle and folds its outcome into the stats. The
// handle is sealed before the snapshot below, so no push (not even one
// from an abandoned wave) lands uncounted, and woken after the stats
// are updated, so a caller woken by Wait or Done already sees its
// request counted in Stats.
func (s *Server) finalize(h *Handle, err error) {
	if h.seal(err) {
		defer h.wake()
	}
	h.mu.Lock()
	n := len(h.out)
	ttft := h.firstTok.Sub(h.submitted)
	span := h.lastTok.Sub(h.firstTok)
	wasDeferred := h.deferred
	h.mu.Unlock()
	var tpot time.Duration
	if n > 1 {
		tpot = span / time.Duration(n-1)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.dequeueLocked(h)
	canceled := false
	switch {
	case err == nil:
		s.stats.Completed++
	case errors.Is(err, ErrCanceled):
		s.stats.Canceled++
		canceled = true
	default:
		s.stats.Failed++
	}
	if wasDeferred {
		s.stats.Deferred++
	}
	s.stats.GeneratedTokens += n
	if n > 0 {
		s.stats.ttftSum += ttft
		s.stats.ttftN++
		if s.stats.ttftHist == nil {
			s.stats.ttftHist = metrics.NewLatencyHistogram()
		}
		s.stats.ttftHist.Observe(ttft)
	}
	if n > 1 {
		s.stats.tpotSum += tpot
		s.stats.tpotN++
		if s.stats.tpotHist == nil {
			s.stats.tpotHist = metrics.NewLatencyHistogram()
		}
		s.stats.tpotHist.Observe(tpot)
	}
	// SLO attainment: judged for every finished SLO-carrying request
	// except canceled ones (the client walked away mid-flight — the
	// server neither met nor missed). A failed request, or one whose
	// first token never came, blows its TTFT budget by definition.
	if h.slo.IsZero() || canceled {
		return
	}
	s.stats.SLORequests++
	missTTFT := h.slo.TTFT > 0 && (n == 0 || ttft > h.slo.TTFT)
	missTTFT = missTTFT || (err != nil && !canceled)
	missTPOT := h.slo.TPOT > 0 && n > 1 && tpot > h.slo.TPOT
	if missTTFT {
		s.stats.SLOMissTTFT++
	}
	if missTPOT {
		s.stats.SLOMissTPOT++
	}
	if !missTTFT && !missTPOT {
		s.stats.SLOMet++
	}
}

func (s *Server) failAll(hs []*Handle, err error) {
	if len(hs) == 0 {
		return
	}
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
	for _, h := range hs {
		s.finalize(h, err)
	}
}
