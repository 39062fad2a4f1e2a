package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cir"
	"repro/internal/minicc"
	"repro/internal/typestate"
)

// wireFixture is the capsule-source module with the default checkers
// indexed the way a cached run indexes them before decoding.
type wireFixture struct {
	mod      *cir.Module
	checkers map[string]typestate.Checker
}

func newWireFixture(t *testing.T) wireFixture {
	return wireFixture{mod: lowerCapsuleSrc(t), checkers: checkersByName(Config{}.withDefaults())}
}

// instrs returns the named function's instructions in block order.
func (f wireFixture) instrs(t *testing.T, fn string) []cir.Instr {
	t.Helper()
	var out []cir.Instr
	f.mod.Funcs[fn].Instrs(func(in cir.Instr) { out = append(out, in) })
	if len(out) < 3 {
		t.Fatalf("%s has %d instructions", fn, len(out))
	}
	return out
}

func (f wireFixture) decode(data []byte) (*Result, bool) {
	return decodeCapsule(data, f.mod, f.checkers)
}

func mustEncode(t *testing.T, res *Result) []byte {
	t.Helper()
	data, ok := encodeCapsule(res)
	if !ok {
		t.Fatal("capsule does not encode")
	}
	return data
}

// TestCapsuleStatsWireCarriesReplayedCounters: the Stats section stores
// exactly the six counters mergeResults sums from a replayed entry, and
// decoding adds the replay's own: one entry, hit, with every stored step
// skipped. Every other field, set before encoding, reads back zero.
func TestCapsuleStatsWireCarriesReplayedCounters(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		// Distinct values, alternating sign, so a swapped or dropped slot
		// cannot go unnoticed.
		val := int64(i+1) * 1_000_003
		if i%2 == 1 {
			val = -val
		}
		v.Field(i).SetInt(val)
	}
	got, ok := newWireFixture(t).decode(mustEncode(t, &Result{Stats: s}))
	if !ok {
		t.Fatal("stats-only capsule did not decode")
	}
	want := Stats{
		PathsExplored:     s.PathsExplored,
		StepsExecuted:     s.StepsExecuted,
		Budgeted:          s.Budgeted,
		Typestates:        s.Typestates,
		TypestatesUnaware: s.TypestatesUnaware,
		RepeatedDropped:   s.RepeatedDropped,
		EntryFunctions:    1,
		CacheEntriesHit:   1,
		CacheStepsSkipped: s.StepsExecuted,
	}
	if got.Stats != want {
		t.Errorf("stats round trip:\n got %+v\nwant %+v", got.Stats, want)
	}
}

// TestCapsuleWireEmptySlicesReadBackNil: empty slices decode as nil, and
// everything else round-trips against the module.
func TestCapsuleWireEmptySlicesReadBackNil(t *testing.T) {
	f := newWireFixture(t)
	leak := f.instrs(t, "entry_leak")
	chk := f.checkers["null-pointer-dereference"]
	fn := f.mod.Funcs["entry_leak"]
	in := &PossibleBug{
		Checker:   chk,
		Type:      chk.Type(),
		BugInstr:  leak[1],
		OriginGID: leak[2].GID(),
		Path:      []PathStep{},
		AltPaths:  [][]PathStep{{}, {{Instr: leak[2], Taken: true}}},
		Extra:     &typestate.ExtraConstraint{Val: fn.Params[0], Pred: cir.PredLT, Bound: -3},
		EntryFn:   "entry_leak",
		InFn:      "entry_leak",
		AliasSet:  []string{},
		verdict:   &verdictC{Feasible: true, Trigger: []string{}},
	}
	got, ok := f.decode(mustEncode(t, &Result{Possible: []*PossibleBug{in}}))
	if !ok {
		t.Fatal("capsule did not decode")
	}
	want := *in
	want.Path = nil
	want.AliasSet = nil
	want.AltPaths = [][]PathStep{nil, in.AltPaths[1]}
	want.verdict = &verdictC{Feasible: true}
	if len(got.Possible) != 1 || !reflect.DeepEqual(*got.Possible[0], want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got.Possible, want)
	}
	if got, _ := f.decode(mustEncode(t, &Result{Possible: []*PossibleBug{}})); got.Possible != nil {
		t.Error("empty candidate list decoded non-nil")
	}
}

// capsuleVariantSrc is capsuleSrc with entry_clean grown by blocks and
// instructions the real one lacks, and one more function.
const capsuleVariantSrc = `
static int entry_clean(int a) {
	int b = a + 1;
	b = b * 3;
	b = b - a;
	b = b + 7;
	b = b * a;
	if (a > 1) {
		b = b + 1;
		if (a > 2)
			b = b + 2;
	}
	return b * 2;
}

int other_fn(int a) {
	return a + 1;
}
`

// TestCapsuleWireRejectsMalformed: every strict prefix of a valid payload,
// a trailing byte, a forged length prefix, an over-long varint, a
// non-canonical boolean, an unknown flag bit and an origin on none of the
// candidate's paths are each rejected, and so is every reference the
// module cannot resolve: a function, block, index, register or global. So
// is an extra constraint whose predicate is none of cir's six.
func TestCapsuleWireRejectsMalformed(t *testing.T) {
	f := newWireFixture(t)
	leak := f.instrs(t, "entry_leak")
	chk := f.checkers["memory-leak"]
	cand := func() *PossibleBug {
		return &PossibleBug{
			Checker:  chk,
			Type:     chk.Type(),
			BugInstr: leak[2],
			Path:     []PathStep{{Instr: leak[0], Taken: true}},
			EntryFn:  "entry_leak",
			InFn:     "entry_leak",
			AliasSet: []string{"buf"},
		}
	}
	capsule := func(pb *PossibleBug) []byte {
		return mustEncode(t, &Result{Stats: Stats{StepsExecuted: 9}, Possible: []*PossibleBug{pb}})
	}
	good := capsule(cand())
	if _, ok := f.decode(good); !ok {
		t.Fatal("valid capsule rejected")
	}
	for n := 0; n < len(good); n++ {
		if _, ok := f.decode(good[:n]); ok {
			t.Errorf("%d-byte prefix of a %d-byte capsule accepted", n, len(good))
		}
	}
	if _, ok := f.decode(append(append([]byte(nil), good...), 0)); ok {
		t.Error("trailing byte accepted")
	}
	// A string table claiming 2^40 entries must fail before allocating.
	if _, ok := f.decode([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}); ok {
		t.Error("forged table length accepted")
	}
	// An empty capsule is an empty table, six zero counters and no
	// candidates; its first counter spelled as an eleven-byte varint,
	// which overflows 64 bits, must be rejected.
	empty := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	if _, ok := f.decode(empty); !ok {
		t.Fatal("empty capsule rejected")
	}
	overlong := append([]byte{0}, bytes.Repeat([]byte{0xff}, 10)...)
	overlong = append(overlong, 0x01, 0, 0, 0, 0, 0, 0)
	if _, ok := f.decode(overlong); ok {
		t.Error("over-long varint accepted")
	}

	// A candidate with a verdict: every strict prefix, so every truncation
	// of the verdict, is rejected, and so is a non-canonical feasible byte,
	// located as the first byte that changes when feasible flips.
	withVerdict := func(feasible bool) []byte {
		pb := cand()
		pb.verdict = &verdictC{Feasible: feasible, Constraints: 3, Trigger: []string{"q = 0"}}
		return capsule(pb)
	}
	vgood := withVerdict(true)
	if v, ok := f.decode(vgood); !ok || !v.Possible[0].verdict.Feasible || v.Possible[0].verdict.Trigger[0] != "q = 0" {
		t.Fatalf("valid verdict: %+v %v", v, ok)
	}
	for n := 0; n < len(vgood); n++ {
		if _, ok := f.decode(vgood[:n]); ok {
			t.Errorf("%d-byte prefix of a %d-byte capsule with a verdict accepted", n, len(vgood))
		}
	}
	vfalse := withVerdict(false)
	foff := firstDiff(vgood, vfalse)
	if foff == len(vgood) || vgood[foff] != 1 || vfalse[foff] != 0 {
		t.Fatalf("feasible byte not found at offset %d", foff)
	}
	bad := append([]byte(nil), vgood...)
	bad[foff] = 2 // feasible must be 0 or 1
	if _, ok := f.decode(bad); ok {
		t.Error("non-canonical boolean accepted")
	}

	// Set an unknown bit in the candidate's flags byte, located as the
	// first byte that changes when the candidate gains an origin (its path
	// step, in the function the string table already holds).
	pb := cand()
	pb.OriginGID = leak[0].GID()
	withOrigin := capsule(pb)
	if _, ok := f.decode(withOrigin); !ok {
		t.Fatal("valid capsule with an origin rejected")
	}
	off := firstDiff(good, withOrigin)
	if off == len(good) || good[off] != 0 || withOrigin[off] != candHasOrigin {
		t.Fatalf("flags byte not found at offset %d", off)
	}
	forged := append([]byte(nil), good...)
	forged[off] = 8
	if _, ok := f.decode(forged); ok {
		t.Error("unknown candidate flag bit accepted")
	}
	// Forge the origin: the ref after the flags byte is (function, block,
	// index), one byte each; point its index at the bug instruction, which
	// resolves but is on no path of the candidate.
	if withOrigin[off+2] != 0 || withOrigin[off+3] != 0 || leak[2].Block() != leak[0].Block() {
		t.Fatal("origin ref is not (entry_leak, 0, 0) next to the bug in its block")
	}
	forged = append([]byte(nil), withOrigin...)
	forged[off+3] = 2 * 2 // zigzag varint of index 2
	if _, ok := f.decode(forged); ok {
		t.Error("origin on none of the candidate's paths accepted")
	}

	// References the module cannot resolve: each is written against a
	// variant module (or a value absent from it) and decoded against the
	// capsule-source module.
	variant, err := minicc.LowerAll("capsule", map[string]string{"capsule.c": capsuleVariantSrc})
	if err != nil {
		t.Fatal(err)
	}
	var other cir.Instr
	variant.Funcs["other_fn"].Instrs(func(in cir.Instr) { other = in })
	clean := f.mod.Funcs["entry_clean"]
	var pastBlocks, pastIndex cir.Instr
	for bi, b := range variant.Funcs["entry_clean"].Blocks {
		for ii, in := range b.Instrs {
			switch {
			case bi >= len(clean.Blocks):
				pastBlocks = in
			case ii >= len(clean.Blocks[bi].Instrs):
				pastIndex = in
			}
		}
	}
	if pastBlocks == nil || pastIndex == nil {
		t.Fatal("variant entry_clean has no block or index past the real one's")
	}
	fn := f.mod.Funcs["entry_leak"]
	for _, u := range []struct {
		name string
		edit func(pb *PossibleBug)
	}{
		{"function", func(pb *PossibleBug) { pb.BugInstr = other }},
		{"block", func(pb *PossibleBug) { pb.BugInstr = pastBlocks }},
		{"index", func(pb *PossibleBug) { pb.Path = []PathStep{{Instr: pastIndex}} }},
		{"register", func(pb *PossibleBug) {
			pb.Extra = &typestate.ExtraConstraint{Val: &cir.Register{Fn: fn, ID: 1 << 20}, Pred: cir.PredEQ}
		}},
		{"global", func(pb *PossibleBug) {
			pb.Extra = &typestate.ExtraConstraint{Val: &cir.Global{Name: "no_such_global"}, Pred: cir.PredEQ}
		}},
		{"predicate", func(pb *PossibleBug) {
			pb.Extra = &typestate.ExtraConstraint{Val: fn.Params[0], Pred: "=="}
		}},
	} {
		pb := cand()
		u.edit(pb)
		if _, ok := f.decode(capsule(pb)); ok {
			t.Errorf("unresolvable %s accepted", u.name)
		}
	}
}

// firstDiff returns the first offset at which a and b differ.
func firstDiff(a, b []byte) int {
	off := 0
	for off < len(a) && off < len(b) && a[off] == b[off] {
		off++
	}
	return off
}
