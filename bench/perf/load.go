package perf

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// failedLatency is what a failed request records in a latency histogram: a
// request that fails or is refused counts as missing every latency limit.
const failedLatency = time.Hour

// Limits are the conditions an open-loop rung must meet.
type Limits struct {
	// P99 bounds the 99th-percentile latency, timed from each request's due
	// time, with failed requests counted as infinitely slow.
	P99 time.Duration
	// MaxFailed bounds failed ÷ attempted.
	MaxFailed float64
}

// Rung is one rate of an open-loop ladder.
type Rung struct {
	Rate     float64 // requests per second
	Duration time.Duration
}

// RungResult is what one open-loop rung measured.
type RungResult struct {
	Rate      float64
	Attempted int
	Failed    int
	// Latency runs from each request's due time to its completion, so a
	// stall also charges the requests queued behind it. Windows splits it
	// by sequence into consecutive windows of perWindow requests.
	Latency *Hist
	Windows []*Hist
	// Late is the generator's own lateness: when it queued each request
	// minus when the request was due.
	Late *Hist
	// BacklogMax is the most requests ever due but not yet started;
	// BacklogGrew reports that the backlog trended upwards over the rung.
	BacklogMax  int
	BacklogGrew bool
	// Achieved is completed requests per second of the rung's wall time.
	Achieved float64
	Pass     bool
	Reason   string // why the rung failed
}

// OpenLoop sends requests first, first+1, … on a fixed schedule of rate per
// second for d, whatever the system's progress, through `callers`
// goroutines that each take the next queued request when free. do issues
// request i and returns its error. Latencies are grouped in windows of
// perWindow consecutive requests.
func OpenLoop(rate float64, d time.Duration, callers, first, perWindow int, do func(i int) error) RungResult {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	type job struct {
		i   int
		due time.Time
	}
	queue := make(chan job, n) // sized to the number of sends: the generator never blocks
	nwin := max(1, n/perWindow)
	lat := make([][]*Hist, callers) // per caller, per window
	failed := make([]int, callers)
	last := make([]time.Time, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		lat[c] = newHists(nwin)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range queue {
				err := do(j.i)
				now := time.Now()
				last[c] = now
				h := lat[c][min((j.i-first)/perWindow, nwin-1)]
				if err != nil {
					failed[c]++
					h.Record(failedLatency)
					continue
				}
				h.Record(now.Sub(j.due))
			}
		}(c)
	}
	late := NewHist()
	backlog := make([]int, n)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late.Record(time.Since(due))
		backlog[k] = len(queue)
		queue <- job{i: first + k, due: due}
	}
	close(queue)
	wg.Wait()

	res := RungResult{Rate: rate, Attempted: n, Latency: NewHist(), Windows: mergeWindows(lat), Late: late}
	for _, h := range res.Windows {
		res.Latency.Merge(h)
	}
	end := start
	for c := range lat {
		res.Failed += failed[c]
		if last[c].After(end) {
			end = last[c]
		}
	}
	if el := end.Sub(start).Seconds(); el > 0 {
		res.Achieved = float64(n-res.Failed) / el
	}
	var early, later float64
	for k, b := range backlog {
		if b > res.BacklogMax {
			res.BacklogMax = b
		}
		if k < n/2 {
			early += float64(b)
		} else {
			later += float64(b)
		}
	}
	// A queue the callers keep up with fluctuates around a level; one they
	// cannot keep up with grows linearly, which triples the second half's
	// mean over the first's. The slack of one request per caller keeps an
	// idle queue's 0-versus-1 jitter from counting as growth.
	half := float64(n / 2)
	if half > 0 {
		res.BacklogGrew = later/float64(n-n/2) > 1.5*early/half+float64(callers)
	}
	return res
}

// judge fills Pass and Reason from the limits.
func (r *RungResult) judge(lim Limits) {
	r.Pass = true
	switch {
	case float64(r.Failed) > lim.MaxFailed*float64(r.Attempted):
		r.Pass, r.Reason = false, fmt.Sprintf("%d of %d requests failed", r.Failed, r.Attempted)
	case r.Latency.Quantile(0.99) > float64(lim.P99):
		r.Pass, r.Reason = false, fmt.Sprintf("p99 %.1fms over the %v limit", r.Latency.Ms(0.99), lim.P99)
	case r.BacklogGrew:
		r.Pass, r.Reason = false, fmt.Sprintf("backlog grew (max %d)", r.BacklogMax)
	}
}

// Ladder runs the rungs in order, continuing the request sequence from one
// rung to the next, and stops after the first rung that fails its limits:
// the rates above it are not attempted. The first atLeast rungs run
// whatever their outcome.
func Ladder(rungs []Rung, atLeast, callers int, lim Limits, perWindow int, do func(i int) error) []RungResult {
	var out []RungResult
	next := 0
	for k, r := range rungs {
		res := OpenLoop(r.Rate, r.Duration, callers, next, perWindow, do)
		res.judge(lim)
		next += res.Attempted
		out = append(out, res)
		if !res.Pass && k+1 >= atLeast {
			break
		}
	}
	return out
}

// ClosedResult is what a closed loop measured.
type ClosedResult struct {
	Attempted int
	Failed    int
	Latency   *Hist // service time of each request
	// Windows splits Latency by window, and Rates is each window's
	// completed requests per second.
	Windows []*Hist
	Rates   []float64
}

// ClosedLoop runs `callers` goroutines that each send their next request
// only after the previous one completed, for d, in consecutive windows of
// `window` (or d, if shorter). A request started in a window counts in it.
// do issues caller c's i-th request.
func ClosedLoop(callers int, d time.Duration, do func(c, i int) error) ClosedResult {
	span := min(window, d)
	res := ClosedResult{Latency: NewHist()}
	next := make([]int, callers) // each caller's next request index
	for w := 0; w < int(d/span); w++ {
		lat := newHists(callers)
		attempted := make([]int, callers)
		failed := make([]int, callers)
		start := time.Now()
		deadline := start.Add(span)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for t0 := time.Now(); t0.Before(deadline); {
					err := do(c, next[c])
					next[c]++
					t1 := time.Now()
					attempted[c]++
					if err != nil {
						failed[c]++
						lat[c].Record(failedLatency)
					} else {
						lat[c].Record(t1.Sub(t0))
					}
					t0 = t1
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		h := NewHist()
		for c := range lat {
			h.Merge(lat[c])
			res.Attempted += attempted[c]
			res.Failed += failed[c]
		}
		res.Latency.Merge(h)
		res.Windows = append(res.Windows, h)
		res.Rates = append(res.Rates, float64(h.Count())/elapsed.Seconds())
	}
	return res
}

// window is the length of a closed loop's windows. The host is shared:
// other tenants slow it, on either CPU, by up to ~1.7x for stretches of a
// fraction of a second to several seconds, and only ever slow it. A
// statistic taken per window and reported for the least-disturbed window
// reads the program's own speed; over 10 s runs of a fixed loop on a 2-CPU
// host, the fastest 250 ms window's median varied 4% (IQR over median)
// from run to run where the whole-run median varied 23%. The workloads
// write once a second, so most windows hold no write: the write and the
// cache refill after it are measured by write_p50_ms and the per-layer
// metrics, not by the best window.
const window = 250 * time.Millisecond

// bestP50 is the median latency of the least-disturbed window, in ms (0
// when no window holds samples).
func bestP50(ws []*Hist) float64 {
	var xs []float64
	for _, h := range ws {
		if h.Count() > 0 {
			xs = append(xs, h.Ms(0.5))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func newHists(n int) []*Hist {
	out := make([]*Hist, n)
	for i := range out {
		out[i] = NewHist()
	}
	return out
}

// mergeWindows merges per-caller window histograms window by window.
func mergeWindows(perCaller [][]*Hist) []*Hist {
	out := newHists(len(perCaller[0]))
	for _, hs := range perCaller {
		for k, h := range hs {
			out[k].Merge(h)
		}
	}
	return out
}
