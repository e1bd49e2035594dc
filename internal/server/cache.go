package server

import (
	"container/list"
	"hash/maphash"
	"strings"
	"sync"

	"fsim/internal/stats"
)

// resultCache is the version-stamped result cache: a sharded LRU over
// marshaled response bodies, keyed by strings that embed the graph version
// the result was computed at ("topk/<u>/<k>/<version>",
// "match/<variant>/<bodyhash>/<version>", …). Because the version
// is part of the key, an entry can never be served for a newer snapshot —
// staleness is structurally impossible, independent of invalidation
// timing. Invalidation (purgeOlder, driven by the maintainer's apply hook)
// is therefore a memory-hygiene pass: it drops the entries made
// unreachable by a version bump instead of waiting for LRU pressure to
// evict them.
//
// Sharding keeps the cache off the serving hot path's contention profile:
// a get is one shard lock, a hash lookup and a list splice.
type resultCache struct {
	seed   maphash.Seed
	shards []*cacheShard
	// endpoints holds the per-endpoint traffic counters, attributed by the
	// key prefix up to the first '/' — the workload name every cache key
	// starts with. The map is populated by registerEndpoint during server
	// construction and read-only afterwards, so the hot path needs no
	// lock. Hits and misses measure lookup traffic; evictions count
	// entries displaced by LRU capacity pressure and purges the ones
	// dropped by version-bump invalidation — the split the router's ring
	// decisions and the cluster experiment read: a hot eviction rate means
	// the cache is too small, a hot purge rate means the write stream is
	// outrunning the read working set.
	endpoints map[string]*endpointCacheStats
	// other absorbs keys with no registered prefix (unreachable in a
	// wired server; keeps direct cache tests safe).
	other endpointCacheStats
}

// endpointCacheStats is one endpoint's cache counter block.
type endpointCacheStats struct {
	hits, misses, evictions, purged stats.Counter
}

// registerEndpoint adds a counter block for one workload name. Must be
// called before the cache serves traffic (counters is lock-free).
func (c *resultCache) registerEndpoint(name string) {
	c.endpoints[name] = &endpointCacheStats{}
}

// counters attributes a cache key to its endpoint's counter block.
func (c *resultCache) counters(key string) *endpointCacheStats {
	name := key
	if i := strings.IndexByte(key, '/'); i >= 0 {
		name = key[:i]
	}
	if s, ok := c.endpoints[name]; ok {
		return s
	}
	return &c.other
}

// endpointSnapshots exports every registered endpoint's counter block (the
// /stats "cache" map).
func (c *resultCache) endpointSnapshots() map[string]CacheEndpointStats {
	out := make(map[string]CacheEndpointStats, len(c.endpoints))
	for name, s := range c.endpoints {
		out[name] = s.snapshot()
	}
	return out
}

// CacheEndpointStats is the exported snapshot of one endpoint's cache
// counters (the /stats wire form).
type CacheEndpointStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Purged    int64 `json:"purged"`
}

func (s *endpointCacheStats) snapshot() CacheEndpointStats {
	return CacheEndpointStats{
		Hits:      s.hits.Value(),
		Misses:    s.misses.Value(),
		Evictions: s.evictions.Value(),
		Purged:    s.purged.Value(),
	}
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // value: *cacheEntry
}

type cacheEntry struct {
	key     string
	version uint64
	body    []byte
}

// cacheShards is the number of independently locked shards a server's
// result cache is spread over.
const cacheShards = 16

// newResultCache builds a cache of exactly `capacity` entries spread over
// `shards` shards (capacity already validated/defaulted by the caller): every
// shard gets capacity/shards entries and the first capacity%shards shards
// one more, so the configured budget is honored for non-divisible
// combinations instead of silently losing the remainder.
func newResultCache(capacity, shards int) *resultCache {
	if shards > capacity {
		shards = capacity
	}
	per, extra := capacity/shards, capacity%shards
	c := &resultCache{
		seed:      maphash.MakeSeed(),
		shards:    make([]*cacheShard, shards),
		endpoints: map[string]*endpointCacheStats{},
	}
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		// The maps grow with use: presizing every shard to its capacity
		// costs the full bound up front even when few keys are hot.
		c.shards[i] = &cacheShard{
			capacity: n,
			ll:       list.New(),
			items:    make(map[string]*list.Element),
		}
	}
	return c
}

func (c *resultCache) shard(key string) *cacheShard {
	return c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// get returns the cached body for key and the graph version it was
// computed at, refreshing its recency.
func (c *resultCache) get(key string) ([]byte, uint64, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.counters(key).misses.Inc()
		return nil, 0, false
	}
	s.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	body, version := e.body, e.version
	s.mu.Unlock()
	c.counters(key).hits.Inc()
	return body, version, true
}

// put inserts (or refreshes) an entry, evicting the least recently used
// one when the shard is full. body must not be mutated by the caller after
// the call.
func (c *resultCache) put(key string, version uint64, body []byte) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.version, e.body = version, body
		return
	}
	for s.ll.Len() >= s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		victim := oldest.Value.(*cacheEntry).key
		delete(s.items, victim)
		c.counters(victim).evictions.Inc()
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, version: version, body: body})
}

// purgeOlder drops every entry computed at a version below cutoff — the
// wholesale invalidation run on each graph-version bump. Entries a racing
// flight inserts with an old stamp after the purge are unreachable (their
// keys embed the old version) and fall to LRU eviction.
func (c *resultCache) purgeOlder(cutoff uint64) {
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); e.version < cutoff {
				s.ll.Remove(el)
				delete(s.items, e.key)
				c.counters(e.key).purged.Inc()
			}
			el = next
		}
		s.mu.Unlock()
	}
}

// len counts the live entries across all shards.
func (c *resultCache) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// capacity is the total entry budget across shards.
func (c *resultCache) cap() int {
	n := 0
	for _, s := range c.shards {
		n += s.capacity
	}
	return n
}
