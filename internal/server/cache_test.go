package server

import (
	"fmt"
	"net/http"
	"testing"

	"fsim/internal/dataset"
)

// TestCacheCapacityExact pins the shard split against the configured entry
// budget: capacity % shards used to be silently dropped (capacity 1000
// over 16 shards yielded 992), so the total must now equal the budget for
// non-divisible combinations, with no shard below one entry.
func TestCacheCapacityExact(t *testing.T) {
	cases := []struct{ capacity, shards int }{
		{1000, 16}, // the motivating case: 1000 % 16 = 8 entries were lost
		{1000, 7},
		{4096, 16}, // divisible: unchanged behavior
		{17, 4},
		{7, 3},
		{5, 16}, // fewer entries than shards: shards clamp to capacity
		{1, 16},
		{16, 16},
	}
	for _, tc := range cases {
		c := newResultCache(tc.capacity, tc.shards)
		if got := c.cap(); got != tc.capacity {
			t.Errorf("newResultCache(%d, %d).cap() = %d, want %d", tc.capacity, tc.shards, got, tc.capacity)
		}
		for i, s := range c.shards {
			if s.capacity < 1 {
				t.Errorf("newResultCache(%d, %d): shard %d has capacity %d", tc.capacity, tc.shards, i, s.capacity)
			}
		}
	}
}

// TestCacheCapacityThroughServer asserts the contract end to end: the
// /stats cacheCapacity equals ServerOptions.CacheEntries for a
// non-divisible entries/shards combination, and the cache accepts exactly
// that many distinct entries.
func TestCacheCapacityThroughServer(t *testing.T) {
	g := dataset.RandomGraph(11, 12, 30, 2)
	srv := newTestServer(t, g, Options{CacheEntries: 50})
	var sr StatsResponse
	do(t, srv, http.MethodGet, "/stats", "", &sr)
	if sr.CacheCapacity != 50 {
		t.Fatalf("cacheCapacity = %d, want the configured 50", sr.CacheCapacity)
	}

	// Fill well past the budget with distinct keys; the live entry count
	// must land exactly on the configured capacity (each shard evicts only
	// once its own slice is full).
	for i := 0; i < 500; i++ {
		srv.cache.put(fmt.Sprintf("k/%d", i), 0, []byte("x"))
	}
	if got := srv.cache.len(); got != 50 {
		t.Fatalf("after overfill, len() = %d, want 50", got)
	}
}
