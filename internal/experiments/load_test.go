package experiments

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsim/internal/graph"
)

// fakeServer is a requestFunc that counts calls and records every write.
// Each read takes readDelay. failAt > 0 makes its failAt-th call fail
// with fail (an error) or, when fail is nil, answer 500.
type fakeServer struct {
	readDelay time.Duration
	failAt    int64
	fail      error

	calls    atomic.Int64
	inflight atomic.Int64
	returned atomic.Int64 // reads that have returned to runLoad

	mu     sync.Mutex
	writes []fakeWrite
}

type fakeWrite struct {
	body          string
	readsReturned int64
}

var errFake = errors.New("fake failure")

func (f *fakeServer) do(r request) (int, uint64, error) {
	n := f.calls.Add(1)
	f.inflight.Add(1)
	defer f.inflight.Add(-1)
	if n == f.failAt {
		if f.fail != nil {
			return 0, 0, f.fail
		}
		return http.StatusInternalServerError, 0, nil
	}
	if r.target != "/updates" {
		time.Sleep(f.readDelay)
		f.returned.Add(1)
		return http.StatusOK, 0, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes = append(f.writes, fakeWrite{body: r.body, readsReturned: f.returned.Load()})
	return http.StatusOK, uint64(100 + len(f.writes)), nil
}

func testBatches(n int) [][]graph.Change {
	batches := make([][]graph.Change, n)
	for b := range batches {
		batches[b] = []graph.Change{
			{Op: graph.OpAddEdge, U: graph.NodeID(b), V: graph.NodeID(b + 1)},
			{Op: graph.OpRemoveEdge, U: graph.NodeID(b + 2), V: graph.NodeID(b)},
		}
	}
	return batches
}

// TestRunLoadReadsAndWrites checks runLoad's schedule: exactly
// clients×reads reads, and each batch posted once, in order, only after
// its share of the reads has completed, with onWrite seeing the version
// each write returned.
func TestRunLoadReadsAndWrites(t *testing.T) {
	const clients, reads = 4, 60
	pool := []request{{target: "/a"}, {target: "/b"}, {target: "/c"}}
	batches := testBatches(3)
	f := &fakeServer{readDelay: 20 * time.Microsecond}
	var versions []uint64 // appended on runLoad's writer alone
	run, err := runLoad(f.do, clients, reads, poolReads(pool), batches, func(v uint64, _ time.Time) error {
		versions = append(versions, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(clients * reads)
	if got := f.returned.Load(); got != total {
		t.Errorf("issued %d reads, want %d", got, total)
	}
	if run.Requests != int(total) || run.UpdateBatches != len(batches) || run.UpdateChanges != 2*len(batches) {
		t.Errorf("run = %+v, want %d requests, %d batches, %d changes", run, total, len(batches), 2*len(batches))
	}
	if run.ThroughputRPS <= 0 {
		t.Errorf("throughput %v", run.ThroughputRPS)
	}
	if len(f.writes) != len(batches) {
		t.Fatalf("posted %d batches, want %d", len(f.writes), len(batches))
	}
	for b, w := range f.writes {
		if want := updates(batches[b]).body; w.body != want {
			t.Errorf("write %d body %q, want batch %d %q", b, w.body, b, want)
		}
		if threshold := int64(b+1) * total / int64(len(batches)+1); w.readsReturned < threshold {
			t.Errorf("batch %d posted after %d reads, want at least %d", b, w.readsReturned, threshold)
		}
	}
	if fmt.Sprint(versions) != "[101 102 103]" {
		t.Errorf("onWrite saw versions %v, want [101 102 103]", versions)
	}
}

// TestRunLoadStopsOnFailure checks that the first failure, wherever it
// happens, is what runLoad returns, and that the failure stops every
// client, which have all exited by the return: no call is in flight then,
// and the fake sees no call after it.
func TestRunLoadStopsOnFailure(t *testing.T) {
	errHook := errors.New("onWrite failure")
	cases := []struct {
		name    string
		failAt  int64
		fail    error
		onWrite error
		want    string
	}{
		{"read error", 7, errFake, nil, "fake failure"},
		{"read status", 7, nil, nil, "status 500"},
		{"first call", 1, errFake, nil, "fake failure"},
		{"onWrite error", 0, nil, errHook, "onWrite failure"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const clients, reads = 4, 3000
			f := &fakeServer{readDelay: 50 * time.Microsecond, failAt: tc.failAt, fail: tc.fail}
			onWrite := func(uint64, time.Time) error { return tc.onWrite }
			_, err := runLoad(f.do, clients, reads, poolReads([]request{{target: "/a"}, {target: "/b"}}), testBatches(2), onWrite)
			after, inflight := f.calls.Load(), f.inflight.Load()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("runLoad error %v, want one containing %q", err, tc.want)
			}
			if tc.fail != nil && !errors.Is(err, tc.fail) {
				t.Errorf("runLoad error %v does not wrap %v", err, tc.fail)
			}
			if tc.onWrite != nil && !errors.Is(err, tc.onWrite) {
				t.Errorf("runLoad error %v does not wrap %v", err, tc.onWrite)
			}
			if inflight != 0 {
				t.Errorf("%d calls still in flight when runLoad returned", inflight)
			}
			if after >= clients*reads/2 {
				t.Errorf("clients went on to %d calls after the failure", after)
			}
			// A client left running would keep calling the fake; give it
			// time to show.
			time.Sleep(20 * time.Millisecond)
			if got := f.calls.Load(); got != after {
				t.Errorf("fake saw %d calls after runLoad returned", got-after)
			}
		})
	}
}

// TestWaitForTimeout checks that a wait whose condition never holds
// fails once its deadline passes, naming what it waited for, and that a
// condition that comes true ends the wait without error.
func TestWaitForTimeout(t *testing.T) {
	err := waitFor("follower 3 to serve version 9", 5*time.Millisecond, func() bool { return false })
	if err == nil || !strings.Contains(err.Error(), "follower 3 to serve version 9") {
		t.Fatalf("waitFor error %v, want one naming the follower", err)
	}
	polls := 0
	if err := waitFor("three polls", time.Minute, func() bool { polls++; return polls == 3 }); err != nil {
		t.Fatal(err)
	}
}
