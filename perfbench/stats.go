package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for it to
// be reported: fewer, and the value is one or two outliers, not a tail.
const minBeyond = 10

// Quantile is one percentile with the sample count it was taken from.
type Quantile struct {
	Value float64
	N     int
}

// Percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule. Failed ops belong in samples as +Inf, so they count
// against every limit. It refuses a percentile with fewer than minBeyond
// samples beyond it.
func Percentile(samples []float64, q float64) (Quantile, error) {
	n := len(samples)
	if n == 0 {
		return Quantile{}, fmt.Errorf("p%g: no samples", q*100)
	}
	// Nearest rank, with a tolerance so q·n = 90.00000000000001 ranks 90.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return Quantile{N: n}, fmt.Errorf("p%g: %d samples leave %d beyond it, need %d",
			q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Quantile{Value: s[rank-1], N: n}, nil
}

// median returns the median of xs (mean of the two middle values for an
// even count); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sliceWidth is the length of the time slices a timed window is cut into.
// The window's rate and latency metrics are medians over the quieter half
// of its slices (see quietHalf).
const sliceWidth = 2 * time.Second

// Slice is the ops that started within one time slice of a phase, and the
// share of CPU time the hypervisor stole while it lasted.
type Slice struct {
	Recs  []Rec
	Secs  float64
	Steal float64
}

// cut splits recs into n equal slices of [start, start+d) by op start
// time. An op that started outside that span belongs to no slice.
func cut(recs []Rec, start time.Time, d time.Duration, n int) []Slice {
	out := make([]Slice, n)
	width := d / time.Duration(n)
	for i := range out {
		t0 := start.Add(width * time.Duration(i))
		out[i].Secs = width.Seconds()
		out[i].Steal = hostSteal.Share(t0, t0.Add(width))
	}
	for _, r := range recs {
		off := r.Tm.T0.Sub(start)
		if off < 0 || off >= width*time.Duration(n) {
			continue
		}
		i := int(off / width)
		out[i].Recs = append(out[i].Recs, r)
	}
	return out
}

// cutWindow splits a timed window of length d into slices of sliceWidth
// (one slice when d is shorter).
func cutWindow(recs []Rec, start time.Time, d time.Duration) []Slice {
	return cut(recs, start, d, max(1, int(d/sliceWidth)))
}

// cutSeconds splits a phase into its whole seconds (the phase whole when it
// is shorter than one second).
func cutSeconds(ph Phase) []Slice {
	n := int(ph.Elapsed / time.Second)
	if n < 1 {
		return cut(ph.Recs, ph.Start, ph.Elapsed+time.Nanosecond, 1)
	}
	return cut(ph.Recs, ph.Start, time.Duration(n)*time.Second, n)
}

// quietHalf keeps the half of sl (rounded up) in which the hypervisor stole
// the least CPU time; a tie goes to the earlier slice, and the kept slices
// stay in time order.
// The choice rests on the host's counters alone, never on what the slices
// measured. On a shared VM other guests take the CPU in stretches of
// seconds to minutes; a stretch that covers less than half of a phase then
// moves none of its metrics, and a longer one moves them less.
func quietHalf(sl []Slice) []Slice {
	idx := make([]int, len(sl))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sl[idx[a]].Steal < sl[idx[b]].Steal })
	idx = idx[:(len(sl)+1)/2]
	sort.Ints(idx)
	out := make([]Slice, len(idx))
	for i, j := range idx {
		out[i] = sl[j]
	}
	return out
}

// sliceMBps is the median over slices of the payload bytes (10^6) that
// successful ops moved per second.
func sliceMBps(sl []Slice) float64 {
	rates := make([]float64, len(sl))
	for i, s := range sl {
		rates[i] = float64(okBytes(s.Recs)) / 1e6 / s.Secs
	}
	return median(rates)
}

// sliceQuantile is the median over slices of each slice's q-quantile
// latency. A slice too thin for the quantile (see Percentile) is left out;
// the result is refused when fewer than half the slices support it. v.N is
// the sample count of the slices used, and used is how many they were.
func sliceQuantile(sl []Slice, q float64) (v Quantile, used int, err error) {
	var vals []float64
	for _, s := range sl {
		ms := make([]float64, len(s.Recs))
		for i, r := range s.Recs {
			ms[i] = r.Ms
		}
		p, err := Percentile(ms, q)
		if err != nil {
			continue
		}
		vals = append(vals, p.Value)
		v.N += p.N
	}
	if 2*len(vals) < len(sl) || len(vals) == 0 {
		return Quantile{}, len(vals), fmt.Errorf("p%g: only %d of %d slices hold enough samples", q*100, len(vals), len(sl))
	}
	v.Value = median(vals)
	return v, len(vals), nil
}
