package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	// 1..100 shuffled: nearest rank returns measured values, never an
	// interpolation between them.
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p         float64
		want      float64
		supported bool
	}{
		{0.5, 50, true},
		{0.9, 90, true},   // exactly 10 samples lie beyond
		{0.91, 91, false}, // only 9 do
		{1, 100, false},
		{0.001, 1, true},
	} {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.supported {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", c.p, got, ok, c.want, c.supported)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
	// 99 samples cannot support a p90: only 9 lie beyond it.
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples reported as supported")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestWaveMedian(t *testing.T) {
	wave := func(offset float64, n int) []float64 {
		var xs []float64
		for i := n; i >= 1; i-- {
			xs = append(xs, offset+float64(i))
		}
		return xs
	}
	// Per-wave p50s are 5, 105 and 1005, and p90s 9, 109 and 1009: one
	// slow wave does not set the median, and the empty wave is skipped.
	ws := [][]float64{wave(0, 10), wave(100, 10), nil, wave(1000, 10)}
	if v, n := waveMedian(ws, 0.5); v != 105 || n != 30 {
		t.Errorf("p50 wave median = %v over %d samples; want 105 over 30", v, n)
	}
	if v, _ := waveMedian(ws, 0.9); v != 109 {
		t.Errorf("p90 wave median = %v; want 109", v)
	}
	if v, n := waveMedian(nil, 0.5); !math.IsNaN(v) || n != 0 {
		t.Errorf("wave median of no waves = %v over %d samples; want NaN over 0", v, n)
	}
}
