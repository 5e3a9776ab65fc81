package experiments

import (
	"fmt"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/metrics"
	"moelightning/internal/model"
	"moelightning/internal/perfmodel"
	"moelightning/internal/policy"
	"moelightning/internal/workload"
)

// Quantization study (the paper's §3.3 discusses int4 KV raising
// attention's operational intensity; FlexGen ships 4-bit compression):
// sweep weight and KV dtypes and measure the end-to-end effect. Lower
// precision shrinks both the streamed bytes (weights) and the CPU
// attention traffic (KV), shifting every roofline.

// QuantRow is one dtype combination's result.
type QuantRow struct {
	Weights, KV model.DType
	Measurement
}

// Quantization measures MoE-Lightning(p) on MTBench @ S1 across dtype
// combinations. Compute stays in full precision (as the paper notes for
// int4: "the computation is still done in float32").
func Quantization() []QuantRow {
	base := Settings()["S1"]
	var rows []QuantRow
	for _, wdt := range []model.DType{model.F16, model.Int8, model.Int4} {
		for _, kvdt := range []model.DType{model.F16, model.Int4} {
			cfg := base.Model
			cfg.WeightDType = wdt
			cfg.KVDType = kvdt
			in := perfmodel.Input{Model: cfg, Spec: base.Spec, Workload: workload.MTBench(128), Padded: true}
			m := Measurement{System: "MoE-Lightning(p)"}
			res, err := policy.Optimize(in)
			if err != nil {
				m.Err = err
			} else {
				m = RunPolicy(MoELightningP(), in, res.Policy)
			}
			rows = append(rows, QuantRow{Weights: wdt, KV: kvdt, Measurement: m})
		}
	}
	return rows
}

// RenderQuantization prints the dtype sweep.
func RenderQuantization(rows []QuantRow) string {
	t := metrics.Table{Header: []string{"weights", "kv", "tok/s", "policy"}}
	for _, r := range rows {
		if r.Failed() {
			t.Add(r.Weights.String(), r.KV.String(), "infeasible", "-")
			continue
		}
		t.Add(r.Weights.String(), r.KV.String(), r.TokensPerSecond, r.Policy.String())
	}
	return fmt.Sprintf("Quantization extension: Mixtral 8x7B on T4, MTBench gen=128\n%s", t.String())
}

// MeasuredQuantRow is one measured (not modeled) KV-dtype run of the
// tiny functional engine: the same waves executed with real float32
// math over an F32 or Int8 paged cache.
type MeasuredQuantRow struct {
	KV kvcache.DType
	// TokensPerSecond is wall-clock generation throughput of the run.
	TokensPerSecond float64
	// DtoHBytes is the measured device-to-host total across all waves:
	// prefill's K/V offload (which the codec shrinks to ~9/32) plus the
	// decode QKV transfers (float32 either way).
	DtoHBytes int64
	// CacheBytesPerToken is the paged cache's per-token, per-layer
	// storage cost under the dtype (both halves).
	CacheBytesPerToken int
	Err                error
}

// MeasuredQuantization complements the analytic sweep above with rows
// the measured engine actually ran: a small MTBench-shaped queue
// served end-to-end on TinyMoE under each KV codec. The int8 rows show
// the mechanism the model only predicts — the same waves complete with
// the KV offload traffic and cache footprint cut to ~9/32.
func MeasuredQuantization() []MeasuredQuantRow {
	cfg := model.Tiny()
	var rows []MeasuredQuantRow
	for _, dt := range []kvcache.DType{kvcache.F32, kvcache.Int8} {
		row := MeasuredQuantRow{KV: dt}
		layerFloats := engine.NewLayout(cfg).LayerFloats()
		cpu := memory.NewArena("cpu", cfg.Layers*layerFloats+4<<20)
		gpu := memory.NewArena("gpu", 2*layerFloats+4<<20)
		pinned := memory.NewArena("pinned", 2*layerFloats+4<<20)
		cacheArena := memory.NewArena("kvcache", 4<<20)
		w, err := engine.NewRandomWeights(cpu, cfg, 7)
		if err != nil {
			row.Err = err
			rows = append(rows, row)
			continue
		}
		queue := make([]workload.Request, 8)
		for i := range queue {
			queue[i] = workload.Request{ID: i, PromptLen: 8 + 2*(i%4)}
		}
		start := time.Now()
		srv, err := engine.NewServer(w, gpu, pinned, cacheArena, engine.ServeConfig{
			NumMicroBatches: 2, MicroBatchSize: 2,
			GenLen: 16, CacheTokens: 256, MaxContext: 64,
			KVDtype: dt,
		})
		if err == nil {
			_, err = srv.SubmitBatch(queue, nil)
			if cerr := srv.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			row.Err = err
			rows = append(rows, row)
			continue
		}
		st := srv.Stats()
		if elapsed := time.Since(start).Seconds(); elapsed > 0 {
			row.TokensPerSecond = float64(st.GeneratedTokens) / elapsed
		}
		row.CacheBytesPerToken = kvcache.TokenBytes(cfg.KVDim(), dt)
		row.DtoHBytes = st.DtoHBytes
		rows = append(rows, row)
	}
	return rows
}

// RenderMeasuredQuantization prints the measured rows alongside the
// analytic sweep.
func RenderMeasuredQuantization(rows []MeasuredQuantRow) string {
	t := metrics.Table{Header: []string{"kv (measured)", "tok/s", "DtoH bytes", "cache B/token/layer"}}
	for _, r := range rows {
		if r.Err != nil {
			t.Add(r.KV.String(), "failed", r.Err.Error(), "-")
			continue
		}
		t.Add(r.KV.String(), fmt.Sprintf("%.0f", r.TokensPerSecond), r.DtoHBytes, r.CacheBytesPerToken)
	}
	return fmt.Sprintf("Measured on the functional engine: TinyMoE, 8 requests, gen=16\n%s", t.String())
}
