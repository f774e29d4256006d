package main

import (
	"cmp"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics, sorting xs in place. It returns 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// micros converts a duration to microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// A phase is cut into short windows, so that a stall from outside the
// benchmark, such as the host preempting the machine or another tenant's
// burst, moves the windows it hits rather than the figure. Throughput is
// counted in phaseWindows windows of equal time and reported as the median
// over them: a slower code path, or a stall in more than half of the
// windows, moves it, while a burst of host contention moves only the
// windows it hits. Latency quantiles are taken over windows of latWindow
// consecutive samples, which leaves 10 samples beyond each window's p99, and
// reported as the median over them.
const (
	phaseWindows = 100
	latWindow    = 1000
)

// windows collects one phase's completions per time window and its latency
// samples.
type windows struct {
	start time.Time
	width time.Duration
	count []int
	lat   []latSample
}

type latSample struct {
	at int64   // start of the operation, ns since the phase start
	us float64 // its latency
}

func newWindows(start time.Time, phase time.Duration) *windows {
	return &windows{start: start, width: phase / phaseWindows}
}

// done counts a completion at t.
func (w *windows) done(t time.Time) {
	i := int(t.Sub(w.start) / w.width)
	for len(w.count) <= i {
		w.count = append(w.count, 0)
	}
	w.count[i]++
}

// latency records the latency, in µs, of an operation that started at t.
func (w *windows) latency(t time.Time, us float64) {
	w.lat = append(w.lat, latSample{at: int64(t.Sub(w.start)), us: us})
}

// merge folds o, which covers the same phase, into w.
func (w *windows) merge(o *windows) {
	for len(w.count) < len(o.count) {
		w.count = append(w.count, 0)
	}
	for i, n := range o.count {
		w.count[i] += n
	}
	w.lat = append(w.lat, o.lat...)
}

// rate is the median of the completions per second over the first n
// windows, the ones the phase filled.
func (w *windows) rate(n int) float64 {
	var xs []float64
	for i := 0; i < n && i < len(w.count); i++ {
		xs = append(xs, float64(w.count[i])/w.width.Seconds())
	}
	return median(xs)
}

// meanRate is the completions per second over the first n windows as a
// whole: every stall counts in it.
func (w *windows) meanRate(n int) float64 {
	total := 0
	for i := 0; i < n && i < len(w.count); i++ {
		total += w.count[i]
	}
	return ratio(float64(total), float64(n)*w.width.Seconds())
}

// quantile is the median over windows of latWindow consecutive samples of
// each window's q-quantile latency. Fewer samples than one window make one.
func (w *windows) quantile(q float64) float64 {
	slices.SortFunc(w.lat, func(a, b latSample) int { return cmp.Compare(a.at, b.at) })
	var xs, win []float64
	for i := 0; i < len(w.lat); i += latWindow {
		end := i + latWindow
		if end > len(w.lat) {
			if i > 0 {
				break
			}
			end = len(w.lat)
		}
		win = win[:0]
		for _, s := range w.lat[i:end] {
			win = append(win, s.us)
		}
		xs = append(xs, quantile(win, q))
	}
	return median(xs)
}

// samples counts the latency samples and the completions.
func (w *windows) samples() (lat, done int) {
	for _, n := range w.count {
		done += n
	}
	return len(w.lat), done
}
