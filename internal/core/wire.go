package core

import (
	"encoding/binary"
	"math"
	"time"
)

// Capsule wire format (capsuleVersion 8).
//
// A capsule payload is
//
//	table  uvarint n, n × uvarint len, then the n strings back to back
//	stats  every Stats field in declaration order, each a zigzag varint
//	cands  uvarint n, then n candidates
//
// and a candidate is
//
//	checker  str
//	flags    byte: 1 = has origin, 2 = has extra constraint, 4 = has
//	         verdict
//	origin   ref, when flagged
//	bug      ref
//	path     steps
//	alts     uvarint n, then n × steps
//	extra    when flagged: varint kind, varint val, byte (1 = IsNull,
//	         2 = IsStr), str Str, str RegFn, varint RegID, str Name,
//	         str Pred, varint bound
//	entry, in-function, category  str, str, str
//	aliases  uvarint n, then n × str
//	verdict  when flagged: byte feasible, varint constraints, varint
//	         constraints-unaware, uvarint n, then n × str trigger
//
// where str is a uvarint index into the table, ref is (str fn, varint blk,
// varint idx), and steps is uvarint n followed by n × (str fn,
// uvarint zigzag(blk)<<1|taken, varint idx). The table holds every
// function, checker, category, alias name and trigger string once, in
// first-use order, so a path that walks one function a hundred times
// names it once. The verdict is the candidate's Stage-2 outcome, present
// when Stage 2 decided it from the entry's own paths (see validateGroup).
//
// Decoding parses bytes a crashed or hostile writer may have produced (the
// acache frame checksum catches bit rot, not a forged file), so every
// length prefix is checked against the bytes that remain before anything
// is allocated, booleans must be 0 or 1, flags may not carry unknown bits,
// and trailing bytes are an error. Empty slices decode as nil, so a
// capsule replays the same whichever way its slices were built.

// wireWriter appends the primitives of the capsule format.
type wireWriter struct {
	buf []byte
}

func (w *wireWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *wireWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }

func (w *wireWriter) bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// wireReader consumes the primitives of the capsule format. Errors are
// sticky: after the first malformation every read returns a zero value,
// so counts read as 0 and no loop runs or allocates on garbage.
type wireReader struct {
	data []byte
	bad  bool
}

func (r *wireReader) fail() { r.bad, r.data = true, nil }

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

// int reads a varint that must fit the platform int.
func (r *wireReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *wireReader) byte() byte {
	if len(r.data) == 0 {
		r.fail()
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *wireReader) bool() bool {
	b := r.byte()
	if b > 1 {
		r.fail()
		return false
	}
	return b == 1
}

// count reads a length prefix for elements that each take at least
// minSize bytes on the wire, failing when the remaining input cannot hold
// that many — the bound that keeps a forged prefix from allocating more
// than the input's length implies.
func (r *wireReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.data)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *wireReader) take(n int) []byte {
	if n > len(r.data) {
		r.fail()
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

// done reports whether the payload parsed completely with nothing left.
func (r *wireReader) done() bool { return !r.bad && len(r.data) == 0 }

// ---- string table ----

// strTable interns a capsule's strings on the encoding side.
type strTable struct {
	idx  map[string]uint64
	list []string
}

func (t *strTable) ref(w *wireWriter, s string) {
	i, ok := t.idx[s]
	if !ok {
		i = uint64(len(t.list))
		t.idx[s] = i
		t.list = append(t.list, s)
	}
	w.uvarint(i)
}

// appendTo writes the table section.
func (t *strTable) appendTo(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.list)))
	for _, s := range t.list {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
	}
	for _, s := range t.list {
		buf = append(buf, s...)
	}
	return buf
}

// readTable parses the table section. The strings share one backing
// allocation: the blob is converted once and sliced.
func readTable(r *wireReader) []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	lens := make([]int, n)
	total := 0
	for i := range lens {
		l := r.uvarint()
		if l > uint64(len(r.data)) {
			r.fail()
			return nil
		}
		lens[i] = int(l)
		total += int(l)
		if total > len(r.data) {
			r.fail()
			return nil
		}
	}
	blob := string(r.take(total))
	out := make([]string, n)
	off := 0
	for i, l := range lens {
		out[i] = blob[off : off+l]
		off += l
	}
	return out
}

// tableReader resolves string-table references.
type tableReader struct {
	*wireReader
	strs []string
}

func (r tableReader) str() string {
	i := r.uvarint()
	if i >= uint64(len(r.strs)) {
		r.fail()
		return ""
	}
	return r.strs[i]
}

// ---- Stats ----

// statsWireFields is the number of Stats fields on the wire.
const statsWireFields = 33

func appendStats(w *wireWriter, s *Stats) {
	for _, v := range [statsWireFields]int64{
		int64(s.EntryFunctions), s.PathsExplored, s.StepsExecuted, int64(s.Budgeted),
		s.Typestates, s.TypestatesUnaware, s.PrunedBranches, s.MemoHits, s.SummaryHits,
		s.PossibleBugs, s.RepeatedDropped, s.FalseDropped, s.Constraints, s.ConstraintsUnaware,
		s.ValidationCacheHits, s.ValidationCacheMisses, s.ValidationCacheEvictions,
		s.BatchedSolves, s.BatchFallbacks, s.PrefixAtomsShared, s.BackendDisagreements,
		s.CacheEntriesHit, s.CacheEntriesMiss, s.CacheStepsSkipped, s.WorkSteals,
		s.DeadlineTrips, int64(s.PanicsContained), int64(s.EntriesRetried), int64(s.EntriesDegraded),
		s.AdaptiveEntriesLight, s.SolverNanos,
		int64(s.AnalysisTime), int64(s.ValidationTime),
	} {
		w.varint(v)
	}
}

func readStats(r *wireReader) Stats {
	var s Stats
	s.EntryFunctions = r.int()
	s.PathsExplored = r.varint()
	s.StepsExecuted = r.varint()
	s.Budgeted = r.int()
	s.Typestates = r.varint()
	s.TypestatesUnaware = r.varint()
	s.PrunedBranches = r.varint()
	s.MemoHits = r.varint()
	s.SummaryHits = r.varint()
	s.PossibleBugs = r.varint()
	s.RepeatedDropped = r.varint()
	s.FalseDropped = r.varint()
	s.Constraints = r.varint()
	s.ConstraintsUnaware = r.varint()
	s.ValidationCacheHits = r.varint()
	s.ValidationCacheMisses = r.varint()
	s.ValidationCacheEvictions = r.varint()
	s.BatchedSolves = r.varint()
	s.BatchFallbacks = r.varint()
	s.PrefixAtomsShared = r.varint()
	s.BackendDisagreements = r.varint()
	s.CacheEntriesHit = r.varint()
	s.CacheEntriesMiss = r.varint()
	s.CacheStepsSkipped = r.varint()
	s.WorkSteals = r.varint()
	s.DeadlineTrips = r.varint()
	s.PanicsContained = r.int()
	s.EntriesRetried = r.int()
	s.EntriesDegraded = r.int()
	s.AdaptiveEntriesLight = r.varint()
	s.SolverNanos = r.varint()
	s.AnalysisTime = time.Duration(r.varint())
	s.ValidationTime = time.Duration(r.varint())
	return s
}

// ---- entry capsules ----

const (
	candHasOrigin = 1 << iota
	candHasExtra
	candHasVerdict
)

const (
	extraIsNull = 1 << iota
	extraIsStr
)

// minStepBytes and minCandBytes are the smallest encodings of a path step
// (three one-byte fields) and of a candidate (checker, flags, a three-byte
// bug ref, path and alternate counts, three names and the alias count).
const (
	minStepBytes = 3
	minCandBytes = 11
)

// marshalCapsule encodes c in the capsule wire format.
func marshalCapsule(c *entryCapsule) []byte {
	t := &strTable{idx: make(map[string]uint64)}
	w := &wireWriter{buf: make([]byte, 0, 256)}
	appendStats(w, &c.Stats)
	w.uvarint(uint64(len(c.Cands)))
	for i := range c.Cands {
		appendCand(w, t, &c.Cands[i])
	}
	out := t.appendTo(make([]byte, 0, len(w.buf)+16*len(t.list)+8))
	return append(out, w.buf...)
}

func appendRef(w *wireWriter, t *strTable, ref instrRef) {
	t.ref(w, ref.Fn)
	w.varint(int64(ref.Blk))
	w.varint(int64(ref.Idx))
}

func appendSteps(w *wireWriter, t *strTable, steps []stepC) {
	w.uvarint(uint64(len(steps)))
	for _, st := range steps {
		t.ref(w, st.Ref.Fn)
		blk := int64(st.Ref.Blk)
		zz := uint64(blk<<1) ^ uint64(blk>>63)
		taken := uint64(0)
		if st.Taken {
			taken = 1
		}
		w.uvarint(zz<<1 | taken)
		w.varint(int64(st.Ref.Idx))
	}
}

func appendCand(w *wireWriter, t *strTable, c *candC) {
	t.ref(w, c.Checker)
	var flags byte
	if c.HasOrigin {
		flags |= candHasOrigin
	}
	if c.Extra != nil {
		flags |= candHasExtra
	}
	if c.Verdict != nil {
		flags |= candHasVerdict
	}
	w.buf = append(w.buf, flags)
	if c.HasOrigin {
		appendRef(w, t, c.Origin)
	}
	appendRef(w, t, c.Bug)
	appendSteps(w, t, c.Path)
	w.uvarint(uint64(len(c.Alts)))
	for _, alt := range c.Alts {
		appendSteps(w, t, alt)
	}
	if ex := c.Extra; ex != nil {
		w.varint(int64(ex.Kind))
		w.varint(ex.Val)
		var xf byte
		if ex.IsNull {
			xf |= extraIsNull
		}
		if ex.IsStr {
			xf |= extraIsStr
		}
		w.buf = append(w.buf, xf)
		t.ref(w, ex.Str)
		t.ref(w, ex.RegFn)
		w.varint(int64(ex.RegID))
		t.ref(w, ex.Name)
		t.ref(w, ex.Pred)
		w.varint(ex.Bound)
	}
	t.ref(w, c.EntryFn)
	t.ref(w, c.InFn)
	t.ref(w, c.Category)
	w.uvarint(uint64(len(c.AliasSet)))
	for _, a := range c.AliasSet {
		t.ref(w, a)
	}
	if v := c.Verdict; v != nil {
		w.bool(v.Feasible)
		w.varint(v.Constraints)
		w.varint(v.ConstraintsUnaware)
		w.uvarint(uint64(len(v.Trigger)))
		for _, s := range v.Trigger {
			t.ref(w, s)
		}
	}
}

// unmarshalCapsule decodes a capsule payload; ok=false on any malformation.
func unmarshalCapsule(data []byte) (entryCapsule, bool) {
	wr := &wireReader{data: data}
	r := tableReader{wireReader: wr, strs: readTable(wr)}
	c := entryCapsule{Stats: readStats(wr)}
	if n := r.count(minCandBytes); n > 0 {
		c.Cands = make([]candC, n)
		for i := range c.Cands {
			readCand(r, &c.Cands[i])
		}
	}
	if !wr.done() {
		return entryCapsule{}, false
	}
	return c, true
}

func readRef(r tableReader) instrRef {
	return instrRef{Fn: r.str(), Blk: r.int(), Idx: r.int()}
}

func readSteps(r tableReader) []stepC {
	n := r.count(minStepBytes)
	if n == 0 {
		return nil
	}
	out := make([]stepC, n)
	for i := range out {
		fn := r.str()
		v := r.uvarint()
		zz := v >> 1
		blk := int64(zz>>1) ^ -int64(zz&1)
		if blk < math.MinInt || blk > math.MaxInt {
			r.fail()
		}
		out[i] = stepC{Ref: instrRef{Fn: fn, Blk: int(blk), Idx: r.int()}, Taken: v&1 == 1}
	}
	return out
}

func readCand(r tableReader, c *candC) {
	c.Checker = r.str()
	flags := r.byte()
	if flags&^(candHasOrigin|candHasExtra|candHasVerdict) != 0 {
		r.fail()
		return
	}
	if flags&candHasOrigin != 0 {
		c.HasOrigin = true
		c.Origin = readRef(r)
	}
	c.Bug = readRef(r)
	c.Path = readSteps(r)
	if n := r.count(1); n > 0 {
		c.Alts = make([][]stepC, n)
		for i := range c.Alts {
			c.Alts[i] = readSteps(r)
		}
	}
	if flags&candHasExtra != 0 {
		ex := &extraC{Kind: r.int(), Val: r.varint()}
		xf := r.byte()
		if xf&^(extraIsNull|extraIsStr) != 0 {
			r.fail()
			return
		}
		ex.IsNull, ex.IsStr = xf&extraIsNull != 0, xf&extraIsStr != 0
		ex.Str = r.str()
		ex.RegFn = r.str()
		ex.RegID = r.int()
		ex.Name = r.str()
		ex.Pred = r.str()
		ex.Bound = r.varint()
		c.Extra = ex
	}
	c.EntryFn = r.str()
	c.InFn = r.str()
	c.Category = r.str()
	if n := r.count(1); n > 0 {
		c.AliasSet = make([]string, n)
		for i := range c.AliasSet {
			c.AliasSet[i] = r.str()
		}
	}
	if flags&candHasVerdict != 0 {
		v := &verdictC{Feasible: r.bool(), Constraints: r.varint(), ConstraintsUnaware: r.varint()}
		if n := r.count(1); n > 0 {
			v.Trigger = make([]string, n)
			for i := range v.Trigger {
				v.Trigger[i] = r.str()
			}
		}
		c.Verdict = v
	}
}
