package engine

import (
	"reflect"
	"testing"

	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// serveAll drains a closed queue through a Server — NewServer, one
// SubmitBatch, Close — and returns the tokens of every request that
// completed, by ID, with the final stats and Close's error.
func serveAll(w *Weights, gpu, pinned, cacheArena *memory.Arena, queue []workload.Request, cfg ServeConfig) (map[int][]int, ServerStats, error) {
	srv, err := NewServer(w, gpu, pinned, cacheArena, cfg)
	if err != nil {
		return nil, ServerStats{}, err
	}
	hs, err := srv.SubmitBatch(queue, nil)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	out := make(map[int][]int, len(hs))
	for _, h := range hs {
		if tokens, herr := h.Wait(); herr == nil {
			out[h.ID()] = tokens
		}
	}
	return out, srv.Stats(), err
}

func serveQueue(n int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{ID: 100 + i, PromptLen: 3 + i%7, GenLen: 4}
	}
	return reqs
}

// TestServeMatchesReference: every request served in waves must produce
// exactly the tokens the sequential reference produces for it.
func TestServeMatchesReference(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	queue := serveQueue(10)
	const genLen = 4

	outputs, res, err := serveAll(w, gpu, pinned, cacheArena, queue, ServeConfig{
		NumMicroBatches: 2,
		MicroBatchSize:  2,
		GenLen:          genLen,
		CacheTokens:     256,
		MaxContext:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Waves < 3 {
		t.Errorf("10 requests over 2x2 waves should need >= 3 waves, got %d", res.Waves)
	}
	if res.Deferred == 0 {
		t.Error("later requests must have been deferred at least once")
	}
	if len(outputs) != len(queue) {
		t.Fatalf("served %d of %d requests", len(outputs), len(queue))
	}

	// Reference: each request independently.
	prompts := PromptsFromRequests(queue, cfg.VocabSize)
	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), len(queue), 64)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, genLen)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range queue {
		if !reflect.DeepEqual(outputs[r.ID], want[i]) {
			t.Errorf("request %d: serve %v != reference %v", r.ID, outputs[r.ID], want[i])
		}
	}
}

// TestServeSingleWave: a queue that fits one wave runs in one wave.
func TestServeSingleWave(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := serveAll(w, gpu, pinned, cacheArena, serveQueue(4), ServeConfig{
		NumMicroBatches: 2,
		MicroBatchSize:  2,
		GenLen:          3,
		CacheTokens:     512,
		MaxContext:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Waves != 1 || res.Deferred != 0 {
		t.Errorf("waves=%d deferred=%d, want 1/0", res.Waves, res.Deferred)
	}
}

// TestServeRejectsImpossibleRequest: a prompt larger than the KV budget
// can never be placed and must be reported, not looped forever.
func TestServeRejectsImpossibleRequest(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	queue := []workload.Request{{ID: 1, PromptLen: 100, GenLen: 4}}
	_, _, err = serveAll(w, gpu, pinned, cacheArena, queue, ServeConfig{
		NumMicroBatches: 1,
		MicroBatchSize:  1,
		GenLen:          4,
		CacheTokens:     50, // prompt + gen > budget
		MaxContext:      128,
	})
	if err == nil {
		t.Fatal("impossible request accepted")
	}
}

// TestPipelineExplicitPartition: uneven Alg. 2-style partitions work and
// match the reference.
func TestPipelineExplicitPartition(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	prompts := testPrompts(5, 3, 8, cfg.VocabSize)
	partition := [][]int{{3, 0}, {1}, {4, 2}}

	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 5, Config{
		MaxContext: 64, Partition: partition,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.Generate(prompts, 5)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partitioned pipeline diverges:\n got %v\nwant %v", got, want)
	}
}

func TestPartitionValidation(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][][]int{
		{{0, 1}, {}},     // empty micro-batch
		{{0, 1}, {1, 2}}, // duplicate
		{{0, 5}},         // out of range
		{{0}},            // incomplete cover (n=3)
	}
	for i, part := range bad {
		if _, err := NewPipeline(w, gpu, pinned, cacheArena, 3, Config{MaxContext: 16, Partition: part}); err == nil {
			t.Errorf("case %d: bad partition accepted", i)
		}
	}
}
