package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values, which it sorts in place, and the number of samples strictly
// above it. An empty input yields NaN and 0.
func percentile(values []float64, p float64) (v float64, above int) {
	n := len(values)
	if n == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(values)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	v = values[rank-1]
	for i := rank; i < n; i++ {
		if values[i] > v {
			return v, n - i
		}
	}
	return v, 0
}

// quartiles returns the first quartile, median and third quartile of
// values with the exclusive method of Python's
// statistics.quantiles(values, n=4), the spread definition the
// benchmark's bounds are checked against. values is sorted in place.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return values[0], values[0], values[0]
	}
	sort.Float64s(values)
	cut := func(i int) float64 {
		// Python: j = i*(n+1)//4 clamped to [1, n-1], then
		// delta = i*(n+1) - j*4.
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := m - j*4
		return (values[j-1]*float64(4-delta) + values[j]*float64(delta)) / 4
	}
	return cut(1), median(values), cut(3)
}

// median returns the median of values, which it sorts in place.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// bestTenth returns the mean of the best tenth (at least one) of values,
// which it sorts in place: the highest when higher is better, else the
// lowest. An empty input yields NaN.
func bestTenth(values []float64, higherIsBetter bool) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	k := (n + 9) / 10
	best := values[:k]
	if higherIsBetter {
		best = values[n-k:]
	}
	sum := 0.0
	for _, v := range best {
		sum += v
	}
	return sum / float64(k)
}

// levenshtein is the edit distance between two strings of runes.
func levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			sub := prev[j-1]
			if ra[i-1] != rb[j-1] {
				sub++
			}
			cur[j] = min(sub, prev[j]+1, cur[j-1]+1)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// accuracy is 1 − (summed edit distance ÷ summed reference length) over
// (got, want) pairs: the letter accuracy of a whole run.
func accuracy(got, want []string) float64 {
	dist, total := 0, 0
	for i := range want {
		dist += levenshtein(got[i], want[i])
		total += len([]rune(want[i]))
	}
	if total == 0 {
		return math.NaN()
	}
	return 1 - float64(dist)/float64(total)
}
