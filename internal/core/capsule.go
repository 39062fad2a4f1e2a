package core

import (
	"sort"

	"repro/internal/cir"
	"repro/internal/hmix"
	"repro/internal/typestate"
)

// EntryCache persists per-entry analysis results across runs: one capsule
// per entry function, holding its Stage-1 candidates and their Stage-2
// verdicts. Keys are content-addressed strings computed by the engine;
// values are opaque byte payloads. Load returns ok=false on any miss —
// including corrupted or stale storage — and Save is best-effort (a failed
// write must degrade to a miss on the next run, never to an error).
// Payloads are shared, not copied: an implementation may retain the slice
// Save receives, and nobody modifies a payload after Save or Load.
// Implementations must be safe for concurrent use; acache.Store is the
// standard on-disk implementation.
type EntryCache interface {
	Load(key string) ([]byte, bool)
	Save(key string, data []byte)
}

// capsuleVersion is folded into analysisSalt, so bumping it invalidates
// every cached capsule at once. Bump it whenever the capsule layout, the
// entry keys, the Stats replayed from it, the counters a stored verdict
// carries, or the engine's exploration semantics change in a way old
// capsules cannot represent.
const capsuleVersion = 9

// analysisSalt digests everything outside the function bodies that the
// analysis result can depend on: the capsule format version, the mode,
// every budget knob, the feature toggles, whether Stage-2 validation is
// live and whether it is batched (batching changes the constraint counters
// a capsule's verdicts replay), the checker set (specs by content digest,
// others by name, in configured order — order affects checker indices and
// alias-set capture), the intrinsics table, and the module's globals (name
// and element type; global bodies don't exist in CIR). EntryKey mixes this
// salt into every per-entry key, so changing any of these is a full cache
// invalidation. Call on a withDefaults() config — zero fields would
// otherwise alias their defaulted spellings.
func (c Config) analysisSalt(mod *cir.Module) uint64 {
	h := hmix.Mix2(capsuleVersion, uint64(int64(c.Mode)))
	h = hmix.Mix4(h,
		uint64(int64(c.MaxCallDepth)),
		uint64(int64(c.MaxPathsPerEntry)),
		uint64(int64(c.MaxStepsPerEntry)))
	h = hmix.Mix3(h,
		uint64(int64(c.MaxContinuationsPerCall)),
		uint64(int64(c.LoopUnroll)))
	h = hmix.Mix3(h, boolBit(c.ValidatePath != nil), boolBit(c.ValidateBatch != nil))
	// Fault injection perturbs exploration, so its presence is salted;
	// EntryTimeout/RunTimeout/MaxRetries deliberately are not — degraded
	// entries are simply never persisted, so timing knobs cannot poison
	// the cache and changing them must not invalidate healthy capsules.
	h = hmix.Mix2(h, boolBit(c.FaultHook != nil))
	h = hmix.Mix2(h, uint64(len(c.Checkers)))
	for _, chk := range c.Checkers {
		d := hmix.Str(chk.Name())
		if spec, ok := chk.(*typestate.Spec); ok {
			d = spec.Digest()
		}
		h = hmix.Mix2(h, d)
	}
	h = hmix.Mix2(h, c.Intrinsics.Digest())
	names := make([]string, 0, len(mod.Globals))
	for n := range mod.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h = hmix.Mix3(h, hmix.Str(n), hmix.Str(mod.Globals[n].Elem.String()))
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// entryKeyString formats an entry capsule's storage key: "e" and the key
// in 16 lower-case hex digits.
func entryKeyString(key uint64) string {
	const digits = "0123456789abcdef"
	var b [17]byte
	b[0] = 'e'
	for i := 16; i > 0; i, key = i-1, key>>4 {
		b[i] = digits[key&15]
	}
	return string(b[:])
}

// ---- capsule wire types ----
//
// Capsules never store GIDs: AssignGIDs numbers instructions module-wide,
// so editing one function renumbers every function after it. Instructions
// are addressed as (function name, block index, instruction index) instead,
// which is stable as long as the owning function's body is unchanged — and
// the entry key already guarantees exactly that for every function a
// cached path can step through.

type instrRef struct {
	Fn  string
	Blk int
	Idx int
}

type stepC struct {
	Ref   instrRef
	Taken bool
}

// extraC encodes a typestate.ExtraConstraint. Kind tags the Val: 1 const,
// 2 register, 3 global.
type extraC struct {
	Kind   int
	Val    int64
	IsNull bool
	Str    string
	IsStr  bool
	RegFn  string
	RegID  int
	Name   string
	Pred   string
	Bound  int64
}

type candC struct {
	Checker   string
	HasOrigin bool
	Origin    instrRef
	Bug       instrRef
	Path      []stepC
	Alts      [][]stepC
	Extra     *extraC
	EntryFn   string
	InFn      string
	Category  string
	AliasSet  []string
	Verdict   *verdictC
}

// entryCapsule is one entry function's complete Stage-1 outcome: its
// deduplicated candidates and the exploration counters the run accumulated
// for it (a runEntryDelta Stats delta).
type entryCapsule struct {
	Stats Stats
	Cands []candC
}

// verdictC is one candidate's Stage-2 validation outcome. Verdict-cache
// hit/miss and batching counters are not persisted: they describe the run
// that computed the verdict, not the verdict itself.
type verdictC struct {
	Feasible           bool
	Constraints        int64
	ConstraintsUnaware int64
	Trigger            []string
}

func verdictOf(out ValidationOutcome) *verdictC {
	return &verdictC{
		Feasible:           out.Feasible,
		Constraints:        out.Constraints,
		ConstraintsUnaware: out.ConstraintsUnaware,
		Trigger:            out.Trigger,
	}
}

func (v *verdictC) outcome() ValidationOutcome {
	return ValidationOutcome{
		Feasible:           v.Feasible,
		Constraints:        v.Constraints,
		ConstraintsUnaware: v.ConstraintsUnaware,
		Trigger:            v.Trigger,
	}
}

// ---- encoding ----

// refTable maps live instructions to stable refs, indexing each function's
// body once on first need.
type refTable struct {
	refs    map[cir.Instr]instrRef
	indexed map[string]bool
}

func newRefTable() *refTable {
	return &refTable{refs: make(map[cir.Instr]instrRef), indexed: make(map[string]bool)}
}

func (t *refTable) refOf(in cir.Instr) (instrRef, bool) {
	if r, ok := t.refs[in]; ok {
		return r, true
	}
	blk := in.Block()
	if blk == nil || blk.Fn == nil || t.indexed[blk.Fn.Name] {
		return instrRef{}, false
	}
	fn := blk.Fn
	t.indexed[fn.Name] = true
	for bi, b := range fn.Blocks {
		for ii, bin := range b.Instrs {
			t.refs[bin] = instrRef{Fn: fn.Name, Blk: bi, Idx: ii}
		}
	}
	r, ok := t.refs[in]
	return r, ok
}

func (t *refTable) stepsOf(path []PathStep) ([]stepC, bool) {
	if len(path) == 0 {
		return nil, true
	}
	out := make([]stepC, len(path))
	for i, st := range path {
		r, ok := t.refOf(st.Instr)
		if !ok {
			return nil, false
		}
		out[i] = stepC{Ref: r, Taken: st.Taken}
	}
	return out, true
}

// originInstr finds the candidate's origin instruction on one of its
// witness paths. The search failing means the candidate isn't
// capsule-representable, and the caller skips caching.
func originInstr(pb *PossibleBug) (cir.Instr, bool) {
	if pb.OriginGID == 0 {
		return nil, false
	}
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

func encodeExtra(ex *typestate.ExtraConstraint) (*extraC, bool) {
	if ex == nil {
		return nil, true
	}
	out := &extraC{Pred: string(ex.Pred), Bound: ex.Bound}
	switch v := ex.Val.(type) {
	case *cir.Const:
		out.Kind = 1
		out.Val, out.IsNull, out.Str, out.IsStr = v.Val, v.IsNull, v.Str, v.IsStr
	case *cir.Register:
		if v.Fn == nil {
			return nil, false
		}
		out.Kind = 2
		out.RegFn, out.RegID = v.Fn.Name, v.ID
	case *cir.Global:
		out.Kind = 3
		out.Name = v.Name
	default:
		return nil, false
	}
	return out, true
}

// capsuleOf lifts one entry's Result into its wire form. ok=false means
// some candidate isn't representable (an off-module instruction, an
// unlocatable origin, an exotic extra-constraint value); the caller then
// simply doesn't cache the entry — a conservative miss on the next run,
// never a wrong replay. Lift a missed entry BEFORE mergeResults sees res:
// the merge mutates first-sighting candidates (AltPaths accumulation) in
// place.
func capsuleOf(res *Result) (entryCapsule, bool) {
	cap0 := entryCapsule{Stats: res.Stats, Cands: make([]candC, 0, len(res.Possible))}
	t := newRefTable()
	for _, pb := range res.Possible {
		c := candC{
			Checker:  pb.Checker.Name(),
			EntryFn:  pb.EntryFn,
			InFn:     pb.InFn,
			Category: pb.Category,
			AliasSet: pb.AliasSet,
			Verdict:  pb.verdict,
		}
		var ok bool
		if c.Bug, ok = t.refOf(pb.BugInstr); !ok {
			return entryCapsule{}, false
		}
		if pb.OriginGID != 0 {
			origin, found := originInstr(pb)
			if !found {
				return entryCapsule{}, false
			}
			if c.Origin, ok = t.refOf(origin); !ok {
				return entryCapsule{}, false
			}
			c.HasOrigin = true
		}
		if c.Path, ok = t.stepsOf(pb.Path); !ok {
			return entryCapsule{}, false
		}
		if len(pb.AltPaths) > 0 {
			c.Alts = make([][]stepC, len(pb.AltPaths))
			for i, alt := range pb.AltPaths {
				if c.Alts[i], ok = t.stepsOf(alt); !ok {
					return entryCapsule{}, false
				}
			}
		}
		if c.Extra, ok = encodeExtra(pb.Extra); !ok {
			return entryCapsule{}, false
		}
		cap0.Cands = append(cap0.Cands, c)
	}
	return cap0, true
}

// ---- decoding ----

// resolver maps stable refs back to the fresh module's instructions.
type resolver struct {
	mod *cir.Module
}

func (r resolver) instr(ref instrRef) (cir.Instr, bool) {
	fn, ok := r.mod.Funcs[ref.Fn]
	if !ok || ref.Blk < 0 || ref.Blk >= len(fn.Blocks) {
		return nil, false
	}
	blk := fn.Blocks[ref.Blk]
	if ref.Idx < 0 || ref.Idx >= len(blk.Instrs) {
		return nil, false
	}
	return blk.Instrs[ref.Idx], true
}

func (r resolver) steps(in []stepC) ([]PathStep, bool) {
	if len(in) == 0 {
		return nil, true
	}
	out := make([]PathStep, len(in))
	for i, sc := range in {
		instr, ok := r.instr(sc.Ref)
		if !ok {
			return nil, false
		}
		out[i] = PathStep{Instr: instr, Taken: sc.Taken}
	}
	return out, true
}

func (r resolver) extra(ec *extraC) (*typestate.ExtraConstraint, bool) {
	if ec == nil {
		return nil, true
	}
	out := &typestate.ExtraConstraint{Pred: cir.Pred(ec.Pred), Bound: ec.Bound}
	switch ec.Kind {
	case 1:
		// Typ is left nil: Stage-2's term reconstruction reads only the
		// value fields of a Const.
		out.Val = &cir.Const{Val: ec.Val, IsNull: ec.IsNull, Str: ec.Str, IsStr: ec.IsStr}
	case 2:
		fn, ok := r.mod.Funcs[ec.RegFn]
		if !ok {
			return nil, false
		}
		reg := findRegister(fn, ec.RegID)
		if reg == nil {
			return nil, false
		}
		out.Val = reg
	case 3:
		g, ok := r.mod.Globals[ec.Name]
		if !ok {
			return nil, false
		}
		out.Val = g
	default:
		return nil, false
	}
	return out, true
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

// checkersByName indexes a defaulted config's checker set.
func checkersByName(cfg Config) map[string]typestate.Checker {
	m := make(map[string]typestate.Checker, len(cfg.Checkers))
	for _, chk := range cfg.Checkers {
		m[chk.Name()] = chk
	}
	return m
}

// decodeCapsule rebuilds one entry's Result against the fresh module.
// ok=false — an unresolvable ref, an unknown checker, a malformed payload —
// means the caller treats the capsule as a miss and re-analyzes the entry.
// The replayed Stats carry the stored exploration counters plus the cache
// accounting: one entry hit, with every stored executed step skipped. Each
// candidate carries its stored verdict, if any, for Stage 2 to replay.
func decodeCapsule(data []byte, mod *cir.Module, checkers map[string]typestate.Checker) (*Result, bool) {
	cap0, ok := unmarshalCapsule(data)
	if !ok {
		return nil, false
	}
	r := resolver{mod: mod}
	res := &Result{Stats: cap0.Stats}
	res.Stats.EntryFunctions = 1
	res.Stats.CacheEntriesHit = 1
	res.Stats.CacheEntriesMiss = 0
	res.Stats.CacheStepsSkipped = cap0.Stats.StepsExecuted
	res.Stats.AnalysisTime = 0
	res.Stats.ValidationTime = 0
	for i := range cap0.Cands {
		c := &cap0.Cands[i]
		chk, ok := checkers[c.Checker]
		if !ok {
			return nil, false
		}
		pb := &PossibleBug{
			Checker:  chk,
			Type:     chk.Type(),
			EntryFn:  c.EntryFn,
			InFn:     c.InFn,
			Category: c.Category,
			AliasSet: c.AliasSet,
			verdict:  c.Verdict,
		}
		if pb.BugInstr, ok = r.instr(c.Bug); !ok {
			return nil, false
		}
		if c.HasOrigin {
			origin, ok := r.instr(c.Origin)
			if !ok {
				return nil, false
			}
			pb.OriginGID = origin.GID()
		}
		if pb.Path, ok = r.steps(c.Path); !ok {
			return nil, false
		}
		if len(c.Alts) > 0 {
			pb.AltPaths = make([][]PathStep, len(c.Alts))
			for j := range c.Alts {
				if pb.AltPaths[j], ok = r.steps(c.Alts[j]); !ok {
					return nil, false
				}
			}
		}
		if pb.Extra, ok = r.extra(c.Extra); !ok {
			return nil, false
		}
		res.Possible = append(res.Possible, pb)
	}
	return res, true
}
