// Package acache is the on-disk store behind the incremental analysis
// cache: a flat directory of capsule files, each named by a content-derived
// key (core computes entry keys from transitive function fingerprints;
// this package never interprets them).
//
// The store is deliberately forgiving: it is a cache, not a database. Every
// write is atomic (temp file + rename, so a crashed run never leaves a
// half-written capsule under a valid key), every read verifies a checksum
// frame and treats any mismatch — truncation, bit rot, a format-version
// bump — as a miss that also deletes the bad file, and Save errors are
// swallowed (a full disk degrades to cold analysis, never to a failed run):
// the first failed write warns once and turns every further write off for
// the run, so a disk that fills mid-run costs one syscall failure, not one
// per entry. An optional byte cap evicts least-recently-used capsules after
// each write; Load touches the file mtime so warm entries survive.
package acache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	magic   uint32 = 0x50415443 // "PATC"
	version uint32 = 1
	// header: magic, version, payload length, FNV-64a payload checksum.
	headerLen = 4 + 4 + 8 + 8
	// ext marks store-owned files; eviction and sizing ignore anything else.
	ext = ".capsule"
)

// storeStripes is the key-lock stripe count. Per-key locking only needs to
// serialize writers against readers of the SAME key (rename is atomic, so
// even that is belt-and-braces against mtime-touch races); 16 stripes make
// cross-key convoys — many parallel workers probing a warm cache — vanishingly
// rare without per-key lock bookkeeping.
const storeStripes = 16

// Store is a directory-backed capsule cache. Safe for concurrent use:
// operations on different keys proceed in parallel (locks are striped by key
// hash), and only the directory-scanning eviction pass is serialized.
type Store struct {
	dir      string
	maxBytes int64

	// WarnLog receives the store's single write-failure warning (see
	// disableWrites); nil selects os.Stderr. Set it before the first Save
	// if at all — it is read without synchronization after that.
	WarnLog io.Writer

	// writesOff flips to true on the first failed capsule write and stays
	// true for the rest of the run: open-time writability probing cannot
	// see a disk filling up or a permission flip mid-run, and retrying a
	// dead disk on every Save would burn a syscall round-trip per entry
	// for nothing. Loads are unaffected — an unwritable store can still be
	// read — and the analysis itself never observes the failure.
	writesOff atomic.Bool
	warnOnce  sync.Once

	// stripes[i] guards the keys hashing to stripe i. Filesystem renames are
	// already atomic, so the stripe lock only serializes same-key writers and
	// the Load-side mtime touch; it deliberately does NOT serialize Load
	// against eviction (losing a capsule that was being read re-reads as a
	// miss, which a cache is allowed to do).
	stripes [storeStripes]sync.Mutex
	// evictMu serializes the whole-directory eviction scan; one evictor at a
	// time is enough, and Save skips the scan when another is already running.
	evictMu sync.Mutex
}

// stripe returns the lock guarding key.
func (s *Store) stripe(key string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &s.stripes[h.Sum32()%storeStripes]
}

// Open prepares (creating if needed) the cache directory. maxBytes caps the
// total size of stored capsules, enforced by LRU eviction after each Save;
// 0 or negative means unlimited. A directory that cannot be created or
// written to is reported here, once, so callers can degrade to an uncached
// run instead of discovering the problem as silently-swallowed Save errors.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Probe writability: Save swallows errors by design, so an unwritable
	// directory would otherwise pass Open and never cache anything.
	probe, err := os.CreateTemp(dir, ".tmp-probe-*")
	if err != nil {
		return nil, err
	}
	probe.Close()
	os.Remove(probe.Name())
	return &Store{dir: dir, maxBytes: maxBytes}, nil
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+ext) }

// Load returns the payload stored under key. Any unreadable, truncated,
// corrupted or version-mismatched file is a miss; the bad file is removed
// so the slot heals on the next Save. A hit refreshes the file's mtime
// (the LRU clock).
func (s *Store) Load(key string) ([]byte, bool) {
	mu := s.stripe(key)
	mu.Lock()
	defer mu.Unlock()
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	payload, ok := decodeFrame(data)
	if !ok {
		os.Remove(p)
		return nil, false
	}
	now := time.Now()
	os.Chtimes(p, now, now) // best-effort LRU touch
	return payload, true
}

// Save stores payload under key atomically: the frame is written to a temp
// file in the same directory and renamed into place, so concurrent readers
// and crashed writers only ever observe complete frames. Errors are
// swallowed — a failed Save leaves the cache as it was. After a successful
// write the byte cap is enforced by evicting oldest-mtime capsules.
//
// The frame encode and temp-file write run outside any lock (they touch no
// shared state — the temp name is unique), so parallel workers saving
// different keys only serialize on the rename under their key's stripe.
// A write that fails mid-run (disk full, directory removed, permission
// flip after Open) warns once, disables every further Save for this run,
// and never surfaces to the analysis — the cache degrades to read-only (or
// to nothing) rather than degrading the run.
func (s *Store) Save(key string, payload []byte) {
	if s.writesOff.Load() {
		return
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		s.disableWrites(err)
		return
	}
	_, werr := tmp.Write(encodeFrame(payload))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			s.disableWrites(werr)
		} else {
			s.disableWrites(cerr)
		}
		return
	}
	mu := s.stripe(key)
	mu.Lock()
	err = os.Rename(tmp.Name(), s.path(key))
	mu.Unlock()
	if err != nil {
		os.Remove(tmp.Name())
		s.disableWrites(err)
		return
	}
	s.evict()
}

// disableWrites records a failed capsule write: one warning, then silence —
// every later Save is a no-op for the rest of the run.
func (s *Store) disableWrites(err error) {
	s.writesOff.Store(true)
	s.warnOnce.Do(func() {
		w := s.WarnLog
		if w == nil {
			w = os.Stderr
		}
		fmt.Fprintf(w, "acache: capsule write failed, disabling cache writes for this run: %v\n", err)
	})
}

// WritesDisabled reports whether a failed write has switched the store to
// read-only for this run.
func (s *Store) WritesDisabled() bool { return s.writesOff.Load() }

// Flush forces the backing directory's metadata to stable storage: every
// capsule already renamed into place survives an OS crash after Flush
// returns. Save deliberately does not fsync per capsule (it is on the
// analysis hot path, and a lost cache entry only costs a re-analysis); a
// resident host calls Flush at its quiescent points — graceful drain — so
// the warm-restart story does not depend on the kernel's writeback timing.
// Process crashes (kill -9) need no Flush at all: renamed files are visible
// to the next process regardless.
func (s *Store) Flush() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// evict enforces the byte cap. At most one directory scan runs at a time; a
// Save that finds another evictor mid-scan skips its own pass rather than
// queueing — the cap is advisory and the next uncontended Save re-enforces
// it, so a transient overshoot is the price of not convoying every writer
// behind a full ReadDir.
func (s *Store) evict() {
	if s.maxBytes <= 0 {
		return
	}
	if !s.evictMu.TryLock() {
		return
	}
	defer s.evictMu.Unlock()
	s.evictLocked()
}

// evictLocked removes oldest-mtime capsules until the store fits maxBytes.
// The capsule just written has the newest mtime, so it is evicted last.
// Callers hold evictMu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type fileInfo struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []fileInfo
	var total int64
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ext {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{
			path: filepath.Join(s.dir, e.Name()), size: info.Size(), mtime: info.ModTime(),
		})
		total += info.Size()
	}
	if total <= s.maxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
		}
	}
}

// encodeFrame wraps payload in the header + checksum frame.
func encodeFrame(payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:], magic)
	binary.LittleEndian.PutUint32(out[4:], version)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(out[16:], checksum(payload))
	copy(out[headerLen:], payload)
	return out
}

// decodeFrame verifies the frame and returns the payload, or ok=false for
// any malformation: short header, wrong magic or version, length mismatch
// (truncated or trailing garbage), or checksum failure.
func decodeFrame(data []byte) ([]byte, bool) {
	if len(data) < headerLen {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[0:]) != magic {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[4:]) != version {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(data[8:])
	if n != uint64(len(data)-headerLen) {
		return nil, false
	}
	payload := data[headerLen:]
	if binary.LittleEndian.Uint64(data[16:]) != checksum(payload) {
		return nil, false
	}
	return payload, true
}

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}
