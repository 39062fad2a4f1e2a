// Verdict-cache sharding: the singleflight verdict cache used to live behind
// one Validator-wide sync.Mutex, which serialized every concurrent Stage-2
// worker on a handful of nanosecond-scale map probes — at workers=8 the lock
// convoy cost more than the solves it was guarding. The cache is now split
// into power-of-two lock-striped shards keyed by a 64-bit hash of the
// formula key. Each shard owns its map, its LRU list, and its byte budget,
// so two workers only contend when their formulas land in the same shard.
//
// What sharding must NOT change: a formula key maps to exactly one shard, so
// the singleflight property (one solve per structurally identical in-flight
// system) is preserved verbatim, and the hit/miss/eviction counters remain
// exact — they are atomic totals incremented on the same events as before.
// Only the eviction ORDER is coarser: the LRU clock is per shard, and the
// entry/byte bounds divide across shards (each shard gets an equal slice,
// rounded up), so a pathological key distribution can hold the total
// slightly above MaxCacheEntries while a cold shard stays under its slice.
// Eviction only ever forgets verdicts, so this changes wall-clock, never
// answers.
package pathval

import (
	"container/list"
	"hash/maphash"
	"sync"
)

// defaultCacheShards is the shard count New configures. 16 comfortably
// covers the worker counts the pipeline runs (validation workers default to
// GOMAXPROCS) while keeping per-shard LRU slices large enough that the
// corpus working sets still fit without eviction.
const defaultCacheShards = 16

// shardSeed keys the shard hash. Process-global: every validator hashes the
// same key to the same value, which keeps shard placement deterministic
// within a run (placement never affects answers, only contention).
var shardSeed = maphash.MakeSeed()

// vshard is one lock stripe of the verdict cache: a map from formula key to
// its LRU element, the shard's recency list, and the shard's byte total.
// The trailing pad keeps neighboring shards' mutexes off one cache line so
// uncontended shards don't false-share.
type vshard struct {
	mu    sync.Mutex
	cache map[string]*list.Element // key → element holding *centry
	lru   *list.List               // front = most recently used
	bytes int64

	_ [64]byte
}

// shardsOf returns the validator's shard table, building it on first use.
// The table size is cacheShards rounded up to a power of two (0 selects
// defaultCacheShards; 1 is the single-shard "global mutex" layout, kept for
// tests that want the exact pre-sharding LRU semantics).
func (v *Validator) shardsOf() []*vshard {
	v.shardOnce.Do(func() {
		n := v.cacheShards
		if n <= 0 {
			n = defaultCacheShards
		}
		pow := 1
		for pow < n {
			pow <<= 1
		}
		shards := make([]*vshard, pow)
		for i := range shards {
			shards[i] = &vshard{cache: make(map[string]*list.Element), lru: list.New()}
		}
		v.shards = shards
	})
	return v.shards
}

// shardFor picks the stripe for a formula key.
func (v *Validator) shardFor(key string) *vshard {
	shards := v.shardsOf()
	if len(shards) == 1 {
		return shards[0]
	}
	h := maphash.String(shardSeed, key)
	return shards[h&uint64(len(shards)-1)]
}

// shardBounds returns the per-shard entry/byte budgets: the validator-wide
// bounds divided evenly across shards, rounded up so a bound of 1 entry
// still admits one entry per shard rather than none. Zero or negative
// validator bounds mean unbounded, as before.
func (v *Validator) shardBounds() (maxEntries int, maxBytes int64) {
	n := len(v.shardsOf())
	if v.MaxCacheEntries > 0 {
		maxEntries = (v.MaxCacheEntries + n - 1) / n
	}
	if v.MaxCacheBytes > 0 {
		maxBytes = (v.MaxCacheBytes + int64(n) - 1) / int64(n)
	}
	return maxEntries, maxBytes
}

// evictLocked drops least-recently-used ready entries until shard s fits its
// bounds again, returning how many it dropped. Callers hold s.mu.
func (v *Validator) evictLocked(s *vshard) int64 {
	maxEntries, maxBytes := v.shardBounds()
	var n int64
	over := func() bool {
		return (maxEntries > 0 && s.lru.Len() > maxEntries) ||
			(maxBytes > 0 && s.bytes > maxBytes)
	}
	for elem := s.lru.Back(); elem != nil && over(); {
		prev := elem.Prev()
		ent := elem.Value.(*centry)
		select {
		case <-ent.v.ready:
			v.removeLocked(s, elem)
			n++
		default:
			// In-flight: a waiter is counting on this exact entry's
			// singleflight; skip it and try the next-oldest.
		}
		elem = prev
	}
	return n
}

// removeLocked unlinks one cache entry from shard s. Callers hold s.mu.
func (v *Validator) removeLocked(s *vshard, elem *list.Element) {
	ent := elem.Value.(*centry)
	if cur, ok := s.cache[ent.key]; ok && cur == elem {
		delete(s.cache, ent.key)
	}
	s.lru.Remove(elem)
	s.bytes -= ent.bytes
}

// cacheEntries reports the live entry count across every shard (test and
// introspection helper; takes each shard lock in turn, so the count is a
// consistent per-shard snapshot, not a global atomic one).
func (v *Validator) cacheEntries() int {
	total := 0
	for _, s := range v.shardsOf() {
		s.mu.Lock()
		total += s.lru.Len()
		s.mu.Unlock()
	}
	return total
}
