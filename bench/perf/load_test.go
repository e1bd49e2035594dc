package perf

import (
	"errors"
	"testing"
	"time"
)

// A fake handler with a fixed 2ms service time and one caller can serve at
// most 500 requests per second. Below that the rung passes and its latency
// is about the service time; above it the queue wait is charged to the
// requests (latency from the due time far exceeds the service time), the
// rung fails, and the ladder skips the higher rates.
func TestLadderCountsQueueWaitAndFailsAboveCapacity(t *testing.T) {
	const service = 2 * time.Millisecond
	served := 0
	handler := func(i int) error {
		served++
		time.Sleep(service)
		return nil
	}
	rungs := []Rung{
		{Rate: 100, Duration: 500 * time.Millisecond},
		{Rate: 2000, Duration: 300 * time.Millisecond},
		{Rate: 4000, Duration: 300 * time.Millisecond},
	}
	res := Ladder(rungs, 1, 1, Limits{P99: 50 * time.Millisecond, MaxFailed: 0.01}, 10, handler)
	if len(res) != 2 {
		t.Fatalf("ladder ran %d rungs, want 2 (stop at the first failing rung)", len(res))
	}
	low, high := res[0], res[1]
	if !low.Pass {
		t.Errorf("rung at 100/s failed below capacity: %s", low.Reason)
	}
	if p50 := low.Latency.Quantile(0.5); p50 < float64(service) {
		t.Errorf("rung at 100/s: p50 %v below the service time", time.Duration(p50))
	}
	if high.Pass {
		t.Error("rung at 2000/s passed above capacity")
	}
	// 600 requests of ≥2ms each take ≥1.2s; the last was due at 0.3s, so
	// the tail waited ~0.9s in the queue.
	if p99 := high.Latency.Quantile(0.99); p99 < float64(500*time.Millisecond) {
		t.Errorf("rung at 2000/s: p99 %v does not include the queue wait", time.Duration(p99))
	}
	if !high.BacklogGrew || high.BacklogMax < 100 {
		t.Errorf("rung at 2000/s: backlog max %d grew=%v, want a growing backlog", high.BacklogMax, high.BacklogGrew)
	}
	if want := low.Attempted + high.Attempted; served != want {
		t.Errorf("served %d requests, want %d", served, want)
	}
}

func TestLadderFailsOnErrors(t *testing.T) {
	boom := errors.New("boom")
	res := Ladder([]Rung{{Rate: 200, Duration: 200 * time.Millisecond}}, 1, 2, Limits{P99: time.Second, MaxFailed: 0.01}, 10,
		func(i int) error {
			if i%10 == 0 {
				return boom
			}
			return nil
		})
	if res[0].Pass || res[0].Failed != 4 {
		t.Errorf("rung with 10%% errors: pass=%v failed=%d, want a failing rung with 4 failures", res[0].Pass, res[0].Failed)
	}
}

func TestClosedLoop(t *testing.T) {
	res := ClosedLoop(2, 100*time.Millisecond, func(c, i int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if res.Attempted < 20 || res.Failed != 0 || res.Latency.Count() != uint64(res.Attempted) {
		t.Errorf("closed loop: attempted %d failed %d samples %d", res.Attempted, res.Failed, res.Latency.Count())
	}
	if res.Latency.Quantile(0.5) < float64(time.Millisecond) {
		t.Errorf("closed-loop latency below the service time")
	}
}
