package core

import (
	"encoding/binary"

	"repro/internal/cir"
	"repro/internal/typestate"
)

// Capsule wire format (capsuleVersion 10).
//
// A capsule payload is one entry's Result:
//
//	table  uvarint n, n × uvarint len, then the n strings back to back
//	stats  six zigzag varints: PathsExplored, StepsExecuted, Budgeted,
//	       Typestates, TypestatesUnaware, RepeatedDropped
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
//	extra    when flagged: varint kind (1 const, 2 register, 3 global),
//	         varint val, byte (1 = IsNull, 2 = IsStr), str Str, str RegFn,
//	         varint RegID, str Name, str Pred, varint bound
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
// The stats are the counters a replayed entry adds to its run's totals
// (capsuleStats). A saved entry is never degraded, so its retry, panic and
// deadline counters are zero; a replay adds the entry and cache counters
// itself; Stage 2 recomputes the rest. Adding or deleting a Stats field
// therefore leaves the format alone.
//
// Capsules never store GIDs: AssignGIDs numbers instructions module-wide,
// so editing one function renumbers every function after it. Instructions
// are addressed as (function name, block index, instruction index)
// instead, which is stable as long as the owning function's body is
// unchanged — and the entry key already guarantees exactly that for every
// function a cached path can step through.
//
// Decoding parses bytes a crashed or hostile writer may have produced (the
// acache frame checksum catches bit rot, not a forged file), so every
// length prefix is checked against the bytes that remain before anything
// is allocated, booleans must be 0 or 1, flags may not carry unknown bits,
// and trailing bytes are an error. Every reference resolves against the
// module as it is read: an unknown checker, function, block, instruction,
// register or global, or an origin on none of the candidate's paths, fails
// the decode like a malformed byte. Empty slices decode as nil, so a
// capsule replays the same whichever way its slices were built.

// ---- encoding ----

const (
	candHasOrigin = 1 << iota
	candHasExtra
	candHasVerdict
)

const (
	extraConst = 1 + iota
	extraRegister
	extraGlobal
)

const (
	extraIsNull = 1 << iota
	extraIsStr
)

// capsuleStats are the six Stats counters a capsule stores.
type capsuleStats struct {
	PathsExplored     int64
	StepsExecuted     int64
	Budgeted          int
	Typestates        int64
	TypestatesUnaware int64
	RepeatedDropped   int64
}

func capsuleStatsOf(s *Stats) capsuleStats {
	return capsuleStats{
		PathsExplored:     s.PathsExplored,
		StepsExecuted:     s.StepsExecuted,
		Budgeted:          s.Budgeted,
		Typestates:        s.Typestates,
		TypestatesUnaware: s.TypestatesUnaware,
		RepeatedDropped:   s.RepeatedDropped,
	}
}

// replayed returns what a replay of the counters adds to its run's Stats:
// the stored counters plus the replay's own — one entry, hit, with every
// stored executed step skipped.
func (c capsuleStats) replayed() Stats {
	return Stats{
		EntryFunctions:    1,
		PathsExplored:     c.PathsExplored,
		StepsExecuted:     c.StepsExecuted,
		Budgeted:          c.Budgeted,
		Typestates:        c.Typestates,
		TypestatesUnaware: c.TypestatesUnaware,
		RepeatedDropped:   c.RepeatedDropped,
		CacheEntriesHit:   1,
		CacheStepsSkipped: c.StepsExecuted,
	}
}

// capsuleWriter encodes one capsule: stats and candidates into buf, their
// strings into the table.
type capsuleWriter struct {
	buf  []byte
	idx  map[string]uint64
	strs []string
	// pos maps an instruction to its (block, index) within its function;
	// indexed names the functions whose bodies pos already covers.
	pos     map[cir.Instr][2]int
	indexed map[string]bool
	// fresh holds the verdicts Stage 2 decided this run, which take
	// precedence over the ones the candidates carry.
	fresh map[*PossibleBug]*verdictC
}

// encodeEntry encodes one entry's counters and candidates. A candidate's
// verdict is its fresh one, if it has one, else the one it carries.
// ok=false means some candidate isn't representable (an off-module
// instruction, an origin on none of its paths, an exotic extra-constraint
// value); the caller then simply doesn't cache the entry — a conservative
// miss on the next run, never a wrong replay.
func encodeEntry(st capsuleStats, possible []*PossibleBug, fresh map[*PossibleBug]*verdictC) ([]byte, bool) {
	w := &capsuleWriter{
		buf:     make([]byte, 0, 256),
		idx:     make(map[string]uint64),
		pos:     make(map[cir.Instr][2]int),
		indexed: make(map[string]bool),
		fresh:   fresh,
	}
	for _, v := range [...]int64{st.PathsExplored, st.StepsExecuted, int64(st.Budgeted),
		st.Typestates, st.TypestatesUnaware, st.RepeatedDropped} {
		w.varint(v)
	}
	w.uvarint(uint64(len(possible)))
	for _, pb := range possible {
		if !w.cand(pb) {
			return nil, false
		}
	}
	out := binary.AppendUvarint(make([]byte, 0, len(w.buf)+16*len(w.strs)+8), uint64(len(w.strs)))
	for _, s := range w.strs {
		out = binary.AppendUvarint(out, uint64(len(s)))
	}
	for _, s := range w.strs {
		out = append(out, s...)
	}
	return append(out, w.buf...), true
}

func (w *capsuleWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *capsuleWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }

// str writes s as its string-table index, adding it to the table on first
// use.
func (w *capsuleWriter) str(s string) {
	i, ok := w.idx[s]
	if !ok {
		i = uint64(len(w.strs))
		w.idx[s] = i
		w.strs = append(w.strs, s)
	}
	w.uvarint(i)
}

// locate returns in's function name and its (block, index) in that
// function, indexing the function's body on first need.
func (w *capsuleWriter) locate(in cir.Instr) (string, [2]int, bool) {
	blk := in.Block()
	if blk == nil || blk.Fn == nil {
		return "", [2]int{}, false
	}
	fn := blk.Fn
	p, ok := w.pos[in]
	if !ok && !w.indexed[fn.Name] {
		w.indexed[fn.Name] = true
		for bi, b := range fn.Blocks {
			for ii, bin := range b.Instrs {
				w.pos[bin] = [2]int{bi, ii}
			}
		}
		p, ok = w.pos[in]
	}
	return fn.Name, p, ok
}

func (w *capsuleWriter) ref(in cir.Instr) bool {
	fn, p, ok := w.locate(in)
	if ok {
		w.str(fn)
		w.varint(int64(p[0]))
		w.varint(int64(p[1]))
	}
	return ok
}

func (w *capsuleWriter) steps(path []PathStep) bool {
	w.uvarint(uint64(len(path)))
	for _, st := range path {
		fn, p, ok := w.locate(st.Instr)
		if !ok {
			return false
		}
		w.str(fn)
		blk := int64(p[0])
		zz := uint64(blk<<1) ^ uint64(blk>>63)
		taken := uint64(0)
		if st.Taken {
			taken = 1
		}
		w.uvarint(zz<<1 | taken)
		w.varint(int64(p[1]))
	}
	return true
}

func (w *capsuleWriter) cand(pb *PossibleBug) bool {
	w.str(pb.Checker.Name())
	var origin cir.Instr
	var flags byte
	if pb.OriginGID != 0 {
		var ok bool
		if origin, ok = originInstr(pb); !ok {
			return false
		}
		flags |= candHasOrigin
	}
	if pb.Extra != nil {
		flags |= candHasExtra
	}
	v := pb.verdict
	if f := w.fresh[pb]; f != nil {
		v = f
	}
	if v != nil {
		flags |= candHasVerdict
	}
	w.buf = append(w.buf, flags)
	if origin != nil && !w.ref(origin) {
		return false
	}
	if !w.ref(pb.BugInstr) || !w.steps(pb.Path) {
		return false
	}
	w.uvarint(uint64(len(pb.AltPaths)))
	for _, alt := range pb.AltPaths {
		if !w.steps(alt) {
			return false
		}
	}
	if pb.Extra != nil && !w.extra(pb.Extra) {
		return false
	}
	w.str(pb.EntryFn)
	w.str(pb.InFn)
	w.str(pb.Category)
	w.uvarint(uint64(len(pb.AliasSet)))
	for _, a := range pb.AliasSet {
		w.str(a)
	}
	if v != nil {
		feasible := byte(0)
		if v.Feasible {
			feasible = 1
		}
		w.buf = append(w.buf, feasible)
		w.varint(v.Constraints)
		w.varint(v.ConstraintsUnaware)
		w.uvarint(uint64(len(v.Trigger)))
		for _, s := range v.Trigger {
			w.str(s)
		}
	}
	return true
}

func (w *capsuleWriter) extra(ex *typestate.ExtraConstraint) bool {
	var kind, val, regID int64
	var xf byte
	var str, regFn, name string
	switch v := ex.Val.(type) {
	case *cir.Const:
		kind, val, str = extraConst, v.Val, v.Str
		if v.IsNull {
			xf |= extraIsNull
		}
		if v.IsStr {
			xf |= extraIsStr
		}
	case *cir.Register:
		if v.Fn == nil {
			return false
		}
		kind, regFn, regID = extraRegister, v.Fn.Name, int64(v.ID)
	case *cir.Global:
		kind, name = extraGlobal, v.Name
	default:
		return false
	}
	w.varint(kind)
	w.varint(val)
	w.buf = append(w.buf, xf)
	w.str(str)
	w.str(regFn)
	w.varint(regID)
	w.str(name)
	w.str(string(ex.Pred))
	w.varint(ex.Bound)
	return true
}

// originInstr finds the candidate's origin instruction on one of its
// witness paths, where a written capsule stores it and a decoded one must
// find it again.
func originInstr(pb *PossibleBug) (cir.Instr, bool) {
	for _, st := range pb.Path {
		if st.Instr.GID() == pb.OriginGID {
			return st.Instr, true
		}
	}
	for _, alt := range pb.AltPaths {
		for _, st := range alt {
			if st.Instr.GID() == pb.OriginGID {
				return st.Instr, true
			}
		}
	}
	return nil, false
}

// ---- decoding ----

// minStepBytes and minCandBytes are the smallest encodings of a path step
// (three one-byte fields) and of a candidate (checker, flags, a three-byte
// bug ref, path and alternate counts, three names and the alias count).
const (
	minStepBytes = 3
	minCandBytes = 11
)

// capsuleReader decodes one capsule against a module, resolving every
// reference as it reads it. Errors are sticky: after the first
// malformation every read returns a zero value, so counts read as 0 and no
// loop runs or allocates on garbage.
type capsuleReader struct {
	data []byte
	bad  bool
	strs []string
	mod  *cir.Module
	// fnName and fn memoize the last function resolved: consecutive path
	// steps mostly name the same one.
	fnName string
	fn     *cir.Function
}

// replay is what one cache hit contributes to its run: the counters its
// capsule stores and its candidates, each with its stored verdict, if any,
// for Stage 2 to replay. Nothing writes a replay's candidates, so one
// replay may serve several runs (see Carry).
type replay struct {
	stats    capsuleStats
	possible []*PossibleBug
}

// decodeReplay decodes one entry's capsule against the fresh module, the
// way a run replays a hit. ok=false — an unresolvable reference, an
// unknown checker, a malformed payload — means the caller treats the
// capsule as a miss and re-analyzes the entry. A capsule without
// candidates decodes without allocating.
func decodeReplay(data []byte, mod *cir.Module, checkers map[string]typestate.Checker) (replay, bool) {
	r := capsuleReader{data: data, mod: mod}
	r.readTable()
	rp := replay{stats: capsuleStats{
		PathsExplored:     r.varint(),
		StepsExecuted:     r.varint(),
		Budgeted:          r.int(),
		Typestates:        r.varint(),
		TypestatesUnaware: r.varint(),
		RepeatedDropped:   r.varint(),
	}}
	if n := r.count(minCandBytes); n > 0 {
		rp.possible = make([]*PossibleBug, n)
		for i := range rp.possible {
			if rp.possible[i] = r.cand(checkers); rp.possible[i] == nil {
				return replay{}, false
			}
		}
	}
	if r.bad || len(r.data) > 0 {
		return replay{}, false
	}
	return rp, true
}

func (r *capsuleReader) fail() { r.bad, r.data = true, nil }

func (r *capsuleReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *capsuleReader) varint() int64 {
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

// int reads a varint that must fit the platform int.
func (r *capsuleReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *capsuleReader) byte() byte {
	if len(r.data) == 0 {
		r.fail()
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// count reads a length prefix for elements that each take at least
// minSize bytes on the wire, failing when the remaining input cannot hold
// that many — the bound that keeps a forged prefix from allocating more
// than the input's length implies.
func (r *capsuleReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.data)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// readTable parses the table section. The strings share one backing
// allocation: the blob is converted once and sliced. The length prefixes
// are read twice, to bound the blob and then to slice it, rather than
// kept.
func (r *capsuleReader) readTable() {
	n := r.count(1)
	if n == 0 {
		return
	}
	lens := r.data
	total := 0
	for range n {
		l := r.uvarint()
		if r.bad || l > uint64(len(r.data)) || total+int(l) > len(r.data) {
			r.fail()
			return
		}
		total += int(l)
	}
	blob := string(r.data[:total])
	r.data = r.data[total:]
	r.strs = make([]string, n)
	off := 0
	for i := range r.strs {
		l, k := binary.Uvarint(lens)
		lens = lens[k:]
		r.strs[i] = blob[off : off+int(l)]
		off += int(l)
	}
}

// str resolves a string-table reference.
func (r *capsuleReader) str() string {
	i := r.uvarint()
	if i >= uint64(len(r.strs)) {
		r.fail()
		return ""
	}
	return r.strs[i]
}

// instr resolves the instruction at (blk, idx) in the named function,
// failing the read when the module has none.
func (r *capsuleReader) instr(fn string, blk, idx int64) cir.Instr {
	if r.fn == nil || fn != r.fnName {
		f, ok := r.mod.Funcs[fn]
		if !ok {
			r.fail()
			return nil
		}
		r.fnName, r.fn = fn, f
	}
	if blk < 0 || blk >= int64(len(r.fn.Blocks)) {
		r.fail()
		return nil
	}
	b := r.fn.Blocks[blk]
	if idx < 0 || idx >= int64(len(b.Instrs)) {
		r.fail()
		return nil
	}
	return b.Instrs[idx]
}

func (r *capsuleReader) ref() cir.Instr {
	fn, blk := r.str(), r.varint()
	return r.instr(fn, blk, r.varint())
}

func (r *capsuleReader) steps() []PathStep {
	n := r.count(minStepBytes)
	if n == 0 {
		return nil
	}
	out := make([]PathStep, n)
	for i := range out {
		fn, v := r.str(), r.uvarint()
		zz := v >> 1
		blk := int64(zz>>1) ^ -int64(zz&1)
		out[i] = PathStep{Instr: r.instr(fn, blk, r.varint()), Taken: v&1 == 1}
		if r.bad {
			return nil
		}
	}
	return out
}

// cand reads one candidate; nil means the read failed.
func (r *capsuleReader) cand(checkers map[string]typestate.Checker) *PossibleBug {
	chk, ok := checkers[r.str()]
	flags := r.byte()
	if !ok || flags&^(candHasOrigin|candHasExtra|candHasVerdict) != 0 {
		r.fail()
		return nil
	}
	pb := &PossibleBug{Checker: chk, Type: chk.Type()}
	if flags&candHasOrigin != 0 {
		if origin := r.ref(); origin != nil {
			pb.OriginGID = origin.GID()
		}
	}
	pb.BugInstr = r.ref()
	pb.Path = r.steps()
	if n := r.count(1); n > 0 {
		pb.AltPaths = make([][]PathStep, n)
		for i := range pb.AltPaths {
			pb.AltPaths[i] = r.steps()
		}
	}
	if flags&candHasExtra != 0 {
		pb.Extra = r.extra()
	}
	pb.EntryFn, pb.InFn, pb.Category = r.str(), r.str(), r.str()
	if n := r.count(1); n > 0 {
		pb.AliasSet = make([]string, n)
		for i := range pb.AliasSet {
			pb.AliasSet[i] = r.str()
		}
	}
	if flags&candHasVerdict != 0 {
		feasible := r.byte()
		if feasible > 1 {
			r.fail()
		}
		v := &verdictC{Feasible: feasible == 1, Constraints: r.varint(), ConstraintsUnaware: r.varint()}
		if n := r.count(1); n > 0 {
			v.Trigger = make([]string, n)
			for i := range v.Trigger {
				v.Trigger[i] = r.str()
			}
		}
		pb.verdict = v
	}
	if r.bad {
		return nil
	}
	if _, ok := originInstr(pb); pb.OriginGID != 0 && !ok {
		r.fail()
		return nil
	}
	return pb
}

// extra reads an extra constraint. A constant's Typ is left nil: Stage-2's
// term reconstruction reads only the value fields of a Const.
func (r *capsuleReader) extra() *typestate.ExtraConstraint {
	kind, val, xf := r.varint(), r.varint(), r.byte()
	str, regFn, regID, name := r.str(), r.str(), r.int(), r.str()
	ex := &typestate.ExtraConstraint{Pred: cir.Pred(r.str()), Bound: r.varint()}
	if r.bad || xf&^(extraIsNull|extraIsStr) != 0 {
		r.fail()
		return nil
	}
	switch kind {
	case extraConst:
		ex.Val = &cir.Const{Val: val, IsNull: xf&extraIsNull != 0, Str: str, IsStr: xf&extraIsStr != 0}
	case extraRegister:
		if fn, ok := r.mod.Funcs[regFn]; ok {
			if reg := findRegister(fn, regID); reg != nil {
				ex.Val = reg
			}
		}
	case extraGlobal:
		if g, ok := r.mod.Globals[name]; ok {
			ex.Val = g
		}
	}
	if ex.Val == nil {
		r.fail()
		return nil
	}
	return ex
}

// findRegister locates a function's register by ID: a formal parameter or
// an instruction destination. Register IDs are assigned sequentially within
// a function during lowering, so they are as stable as the body itself.
func findRegister(fn *cir.Function, id int) *cir.Register {
	for _, p := range fn.Params {
		if p.ID == id {
			return p
		}
	}
	var found *cir.Register
	fn.Instrs(func(in cir.Instr) {
		if found == nil {
			if d := in.Dest(); d != nil && d.ID == id {
				found = d
			}
		}
	})
	return found
}
