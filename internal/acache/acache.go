// Package acache is the on-disk store behind the incremental analysis
// cache: one append-only pack of checksummed (key, payload) frames per
// cache directory, and an in-memory index over it. Keys are content-derived
// (core computes entry keys from transitive function fingerprints; this
// package never interprets them).
//
// The store is deliberately forgiving: it is a cache, not a database.
// Open reads the pack once, keeps its longest prefix of intact frames and
// truncates the rest (a torn append, bit rot, a format-version bump), so
// damage costs misses, never a wrong payload. Load is a map read. Save
// appends one frame with one write(2) and swallows errors (a full disk
// degrades to cold analysis, never to a failed run): the first failed
// write warns once and turns every further write off for the run.
//
// Several processes may share one directory. Every frame is checksummed
// and, on a local filesystem, O_APPEND writes never interleave, so no process
// reads a wrong payload; a process that compacts or truncates the pack may
// lose another's concurrent appends, which costs that entry a later miss.
package acache

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	magic   uint32 = 0x50415443 // "PATC"
	version uint32 = 2
	// Frame header: magic, version, key length, payload length, and an
	// FNV-64a checksum over the first 16 header bytes, the key and the
	// payload. The key and the payload follow.
	headerLen = 4 + 4 + 4 + 4 + 8
	// PackFile is the pack's name inside the cache directory.
	PackFile = "capsules.pack"
	// tmpPrefix marks files the store may remove at Open: temps of a
	// compaction that did not finish, or of an older store's writes.
	tmpPrefix = ".tmp-"
)

// entry is one indexed frame. gen is the generation of the run that last
// touched it; Load updates it under the index's read lock.
type entry struct {
	frame []byte
	gen   atomic.Uint64
}

// Store is a pack-backed capsule cache, safe for concurrent use.
type Store struct {
	dir string

	// WarnLog receives the store's single write-failure warning (see
	// disableWrites); nil selects os.Stderr. Set it before the first Save
	// if at all — it is read without synchronization after that.
	WarnLog io.Writer

	// writesOff flips to true on the first failed write and stays true:
	// Open's writability check cannot see a disk filling up mid-run, and
	// retrying a dead disk on every Save would cost a syscall per entry
	// for nothing. Loads are unaffected.
	writesOff atomic.Bool
	warnOnce  sync.Once

	// fileMu guards pack and packBytes. A holder of both locks takes
	// fileMu first.
	fileMu    sync.Mutex
	pack      *os.File // opened O_APPEND
	packBytes int64    // the pack's size as this store wrote it

	mu    sync.RWMutex
	index map[string]*entry
	live  int64  // frame bytes of the indexed entries
	gen   uint64 // the current run's generation
}

// Open opens (creating if needed) the cache directory and reads its pack
// into the index. A directory or pack that cannot be created or written is
// reported here, once, so callers can degrade to an uncached run instead
// of discovering the problem as silently swallowed Save errors.
//
// maxBytes is kept only because bench/layers.go passes 0; any other value
// is an error (the store has no byte cap: EndRun bounds the pack).
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes != 0 {
		return nil, fmt.Errorf("acache: byte cap %d: the store has none, pass 0", maxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	temps, err := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
	if err != nil {
		return nil, err
	}
	for _, t := range temps {
		os.Remove(t) // best effort: another process may own it
	}
	f, err := os.OpenFile(filepath.Join(dir, PackFile), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Store{dir: dir, pack: f, index: make(map[string]*entry)}
	valid := scan(data, func(key string, frame []byte) {
		s.put(key, append([]byte(nil), frame...))
	})
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, err
		}
	}
	s.packBytes = int64(valid)
	// The pack's frames belong to earlier runs: the first run starts a
	// generation of its own, so its EndRun drops what it did not touch.
	s.gen = 1
	return s, nil
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

// Load returns the payload indexed under key. It makes no syscall.
func (s *Store) Load(key string) ([]byte, bool) {
	s.mu.RLock()
	e, ok := s.index[key]
	if ok && e.gen.Load() != s.gen {
		e.gen.Store(s.gen)
	}
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.frame[headerLen+len(key):], true
}

// Save appends payload's frame to the pack with one write and indexes it.
// Errors are swallowed: a write that fails (disk full, directory removed,
// permission flip after Open) warns once, turns every further Save into a
// no-op for this store, and never reaches the analysis.
func (s *Store) Save(key string, payload []byte) {
	if s.writesOff.Load() {
		return
	}
	frame := encodeFrame(key, payload)
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	if _, err := s.pack.Write(frame); err != nil {
		s.disableWrites(err)
		return
	}
	s.packBytes += int64(len(frame))
	s.mu.Lock()
	s.put(key, frame)
	s.mu.Unlock()
}

// put indexes frame under key in the current generation. Callers hold mu
// (or own the store exclusively).
func (s *Store) put(key string, frame []byte) {
	if old, ok := s.index[key]; ok {
		s.live -= int64(len(old.frame))
	}
	e := &entry{frame: frame}
	e.gen.Store(s.gen)
	s.index[key] = e
	s.live += int64(len(frame))
}

// EndRun closes one run: patad calls it after each analyze, the CLI once
// before it closes the store. Every entry the run did not load or save
// leaves the index, so the index holds at most the keys of the last
// finished run and of the current one. If the pack then holds more dead
// bytes than live ones, it is rewritten to the live frames through a temp
// file, fsync and rename. Analyses that overlap a run's end may lose keys
// early; that costs a miss, never a wrong replay.
func (s *Store) EndRun() {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	s.mu.Lock()
	for key, e := range s.index {
		if e.gen.Load() != s.gen {
			delete(s.index, key)
			s.live -= int64(len(e.frame))
		}
	}
	s.gen++
	compact := !s.writesOff.Load() && s.packBytes-s.live > s.live
	s.mu.Unlock()
	if compact {
		if err := s.compact(); err != nil {
			s.disableWrites(err)
		}
	}
}

// compact rewrites the pack to the indexed frames. Callers hold fileMu, so
// no Save runs; Loads proceed under the read lock.
func (s *Store) compact() error {
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"pack-*")
	if err != nil {
		return err
	}
	s.mu.RLock()
	buf := make([]byte, 0, s.live)
	for _, e := range s.index {
		buf = append(buf, e.frame...)
	}
	s.mu.RUnlock()
	_, err = tmp.Write(buf)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	path := filepath.Join(s.dir, PackFile)
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	s.pack.Close() // only written to; its frames now live in f
	s.pack, s.packBytes = f, int64(len(buf))
	return nil
}

// disableWrites records a failed write: one warning, then silence — every
// later Save is a no-op.
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
// read-only.
func (s *Store) WritesDisabled() bool { return s.writesOff.Load() }

// Flush fsyncs the pack, then the directory, which makes the pack's
// creation and the last compaction's rename durable: every frame appended
// before Flush survives an OS crash after it returns. Save does not fsync
// (it is on the analysis hot path, and a lost capsule only costs a
// re-analysis); a resident host calls Flush when it drains. A killed
// process needs no Flush: its appended frames are in the page cache, which
// the next process reads.
func (s *Store) Flush() error {
	s.fileMu.Lock()
	err := s.pack.Sync()
	s.fileMu.Unlock()
	if err != nil {
		return err
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close closes the pack. Loads keep working; Saves become no-ops.
func (s *Store) Close() error {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	s.writesOff.Store(true)
	return s.pack.Close()
}

// Size reports the indexed entries, their frame bytes, and the pack's size
// as this store wrote it (live plus dead frames; another process's appends
// are not counted).
func (s *Store) Size() (entries int, live, pack int64) {
	s.fileMu.Lock()
	pack = s.packBytes
	s.fileMu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index), s.live, pack
}

// FrameEnds returns the end offset of every intact frame at the start of
// dir's pack — the frames Open would keep — without opening a store.
func FrameEnds(dir string) ([]int64, error) {
	data, err := os.ReadFile(filepath.Join(dir, PackFile))
	if err != nil {
		return nil, err
	}
	var ends []int64
	end := 0
	scan(data, func(_ string, frame []byte) {
		end += len(frame)
		ends = append(ends, int64(end))
	})
	return ends, nil
}

// scan calls fn for each intact frame at the start of data, in order, and
// returns the length of that prefix.
func scan(data []byte, fn func(key string, frame []byte)) int {
	off := 0
	for {
		n := frameLen(data[off:])
		if n == 0 {
			return off
		}
		keyLen := int(binary.LittleEndian.Uint32(data[off+8:]))
		fn(string(data[off+headerLen:off+headerLen+keyLen]), data[off:off+n])
		off += n
	}
}

// encodeFrame returns the frame of (key, payload).
func encodeFrame(key string, payload []byte) []byte {
	out := make([]byte, headerLen+len(key)+len(payload))
	binary.LittleEndian.PutUint32(out[0:], magic)
	binary.LittleEndian.PutUint32(out[4:], version)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(key)))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(payload)))
	copy(out[headerLen:], key)
	copy(out[headerLen+len(key):], payload)
	binary.LittleEndian.PutUint64(out[16:], checksum(out[:16], out[headerLen:]))
	return out
}

// frameLen returns the length of the intact frame at the start of data, or
// 0 for any malformation: short header, wrong magic or version, lengths
// past the end of data, or a checksum mismatch.
func frameLen(data []byte) int {
	if len(data) < headerLen ||
		binary.LittleEndian.Uint32(data[0:]) != magic ||
		binary.LittleEndian.Uint32(data[4:]) != version {
		return 0
	}
	end := headerLen + uint64(binary.LittleEndian.Uint32(data[8:])) + uint64(binary.LittleEndian.Uint32(data[12:]))
	if end > uint64(len(data)) {
		return 0
	}
	if binary.LittleEndian.Uint64(data[16:]) != checksum(data[:16], data[headerLen:end]) {
		return 0
	}
	return int(end)
}

// checksum is FNV-64a over head then body.
func checksum(head, body []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range head {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range body {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}
