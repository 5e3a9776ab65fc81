package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p90 needs at least 100 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// exact samples, and whether at least minBeyond samples lie above it.
// Nearest rank picks a measured value, never an interpolated one.
func percentile(samples []float64, p float64) (v float64, supported bool) {
	n := len(samples)
	if n == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], n-(rank+1) >= minBeyond
}

// median is the middle sample (the mean of the two middle samples for
// an even count).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// waveMedian is the median, over waves, of each wave's nearest-rank
// p-quantile, and how many samples the waves held. A wave's requests
// share one prefill and one decode loop, so a wave is one independent
// event: the quantile inside a wave describes how its requests spread,
// and the median over waves keeps one slow wave from setting the figure.
// Empty waves are skipped.
func waveMedian(waves [][]float64, p float64) (v float64, n int) {
	var per []float64
	for _, w := range waves {
		if len(w) == 0 {
			continue
		}
		q, _ := percentile(w, p)
		per = append(per, q)
		n += len(w)
	}
	return median(per), n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
