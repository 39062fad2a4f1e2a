package patad

import (
	"sync"

	"repro/internal/acache"
)

// residentCache is the daemon's in-memory capsule tier. It wraps the
// on-disk store as the engine's core.EntryCache and keeps the payload
// bytes the store already verified on load, or that this process wrote,
// so a warm analyze replays capsules without a ReadFile, checksum and
// mtime touch per entry. It holds payloads, never decoded Results: a
// Result points into one module epoch, while a payload resolves against
// whichever epoch its key is probed under.
//
// Save writes through, so the disk stays the crash-restart journal and a
// process that dies loses nothing but this tier.
//
// Retention is two generations with no size knob: cur holds the keys
// touched since the last analyze finished, prev the keys the analyze
// before touched. A hit in prev promotes the key to cur; when an analyze
// finishes, prev — every key that analyze did not touch — is dropped and
// cur becomes prev. The tier therefore holds about one analyze's working
// set. Overlapping analyses may retire each other's keys early; that costs
// a disk read, never a wrong replay.
type residentCache struct {
	disk *acache.Store

	mu    sync.Mutex
	cur   map[string][]byte
	prev  map[string][]byte
	bytes int64 // payload bytes held in cur and prev
}

func newResidentCache(disk *acache.Store) *residentCache {
	return &residentCache{disk: disk, cur: make(map[string][]byte), prev: make(map[string][]byte)}
}

// Load serves key from memory, falling back to the disk store; a disk hit
// becomes resident.
func (c *residentCache) Load(key string) ([]byte, bool) {
	c.mu.Lock()
	data, ok := c.cur[key]
	if !ok {
		if data, ok = c.prev[key]; ok {
			delete(c.prev, key)
			c.cur[key] = data
		}
	}
	c.mu.Unlock()
	if ok {
		return data, true
	}
	if data, ok = c.disk.Load(key); ok {
		c.put(key, data)
	}
	return data, ok
}

// Save writes through to disk and keeps the payload resident.
func (c *residentCache) Save(key string, data []byte) {
	c.disk.Save(key, data)
	c.put(key, data)
}

func (c *residentCache) put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.prev[key]; ok {
		c.bytes -= int64(len(old))
		delete(c.prev, key)
	}
	if old, ok := c.cur[key]; ok {
		c.bytes -= int64(len(old))
	}
	c.cur[key] = data
	c.bytes += int64(len(data))
}

// endAnalyze drops every key the finished analyze did not touch and opens
// a new generation.
func (c *residentCache) endAnalyze() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, data := range c.prev {
		c.bytes -= int64(len(data))
	}
	c.prev, c.cur = c.cur, make(map[string][]byte, len(c.cur))
}

// size reports the resident entry count and payload bytes.
func (c *residentCache) size() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cur) + len(c.prev), c.bytes
}
