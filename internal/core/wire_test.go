package core

import (
	"reflect"
	"testing"
)

// TestCapsuleStatsWireCoversEveryField: every Stats field survives the
// capsule codec, so a field added to Stats without a wire slot fails here
// instead of silently replaying as zero.
func TestCapsuleStatsWireCoversEveryField(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	if v.NumField() != statsWireFields {
		t.Fatalf("Stats has %d fields, the wire carries %d", v.NumField(), statsWireFields)
	}
	for i := 0; i < v.NumField(); i++ {
		// Distinct values, alternating sign, so a swapped or dropped slot
		// cannot go unnoticed.
		val := int64(i+1) * 1_000_003
		if i%2 == 1 {
			val = -val
		}
		v.Field(i).SetInt(val)
	}
	got, ok := unmarshalCapsule(marshalCapsule(&entryCapsule{Stats: s}))
	if !ok {
		t.Fatal("stats-only capsule did not decode")
	}
	if got.Stats != s {
		t.Errorf("stats round trip:\n got %+v\nwant %+v", got.Stats, s)
	}
}

// TestCapsuleWireEmptySlicesReadBackNil: empty slices decode as nil, and
// everything else round-trips.
func TestCapsuleWireEmptySlicesReadBackNil(t *testing.T) {
	in := entryCapsule{Cands: []candC{{
		Checker:   "NPD",
		HasOrigin: true,
		Origin:    instrRef{Fn: "f", Blk: 0, Idx: 2},
		Bug:       instrRef{Fn: "g", Blk: 3, Idx: 1},
		Path:      []stepC{},
		Alts:      [][]stepC{{}, {{Ref: instrRef{Fn: "f", Blk: -1, Idx: 7}, Taken: true}}},
		Extra:     &extraC{Kind: 2, RegFn: "f", RegID: 4, Pred: "<", Bound: -3},
		EntryFn:   "f",
		InFn:      "g",
		AliasSet:  []string{},
	}}}
	got, ok := unmarshalCapsule(marshalCapsule(&in))
	if !ok {
		t.Fatal("capsule did not decode")
	}
	want := in
	want.Cands = []candC{in.Cands[0]}
	want.Cands[0].Path = nil
	want.Cands[0].AliasSet = nil
	want.Cands[0].Alts = [][]stepC{nil, in.Cands[0].Alts[1]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if got, _ := unmarshalCapsule(marshalCapsule(&entryCapsule{Cands: []candC{}})); got.Cands != nil {
		t.Error("empty candidate list decoded non-nil")
	}
	withEmptyTrigger := entryCapsule{Cands: []candC{{Checker: "NPD", Verdict: &verdictC{Trigger: []string{}}}}}
	if got, _ := unmarshalCapsule(marshalCapsule(&withEmptyTrigger)); got.Cands[0].Verdict.Trigger != nil {
		t.Error("empty trigger list decoded non-nil")
	}
}

// TestCapsuleWireRejectsMalformed: every strict prefix of a valid payload,
// a trailing byte, a forged length prefix, a non-canonical boolean and an
// unknown flag bit are each rejected.
func TestCapsuleWireRejectsMalformed(t *testing.T) {
	c := entryCapsule{Stats: Stats{StepsExecuted: 9}, Cands: []candC{{
		Checker: "ML", Bug: instrRef{Fn: "f", Blk: 1, Idx: 2},
		Path:     []stepC{{Ref: instrRef{Fn: "f", Blk: 1, Idx: 0}, Taken: true}},
		EntryFn:  "f",
		InFn:     "f",
		AliasSet: []string{"buf"},
	}}}
	good := marshalCapsule(&c)
	if _, ok := unmarshalCapsule(good); !ok {
		t.Fatal("valid capsule rejected")
	}
	for n := 0; n < len(good); n++ {
		if _, ok := unmarshalCapsule(good[:n]); ok {
			t.Errorf("%d-byte prefix of a %d-byte capsule accepted", n, len(good))
		}
	}
	if _, ok := unmarshalCapsule(append(append([]byte(nil), good...), 0)); ok {
		t.Error("trailing byte accepted")
	}
	// A string table claiming 2^40 entries must fail before allocating.
	if _, ok := unmarshalCapsule([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}); ok {
		t.Error("forged table length accepted")
	}

	// A candidate with a verdict: every strict prefix, so every truncation
	// of the verdict, is rejected, and so is a non-canonical feasible byte,
	// located as the first byte that changes when feasible flips.
	verdictCap := func(feasible bool) entryCapsule {
		v := c
		v.Cands = []candC{c.Cands[0]}
		v.Cands[0].Verdict = &verdictC{Feasible: feasible, Constraints: 3, Trigger: []string{"q = 0"}}
		return v
	}
	vgood := marshalCapsule(ptr(verdictCap(true)))
	if v, ok := unmarshalCapsule(vgood); !ok || !v.Cands[0].Verdict.Feasible || v.Cands[0].Verdict.Trigger[0] != "q = 0" {
		t.Fatalf("valid verdict: %+v %v", v, ok)
	}
	for n := 0; n < len(vgood); n++ {
		if _, ok := unmarshalCapsule(vgood[:n]); ok {
			t.Errorf("%d-byte prefix of a %d-byte capsule with a verdict accepted", n, len(vgood))
		}
	}
	vfalse := marshalCapsule(ptr(verdictCap(false)))
	foff := 0
	for foff < len(vgood) && vgood[foff] == vfalse[foff] {
		foff++
	}
	if foff == len(vgood) || vgood[foff] != 1 || vfalse[foff] != 0 {
		t.Fatalf("feasible byte not found at offset %d", foff)
	}
	bad := append([]byte(nil), vgood...)
	bad[foff] = 2 // feasible must be 0 or 1
	if _, ok := unmarshalCapsule(bad); ok {
		t.Error("non-canonical boolean accepted")
	}

	// Set an unknown bit in the candidate's flags byte, located as the
	// first byte that changes when the candidate gains an origin in a
	// function the string table already holds.
	withOrigin := c
	withOrigin.Cands = []candC{c.Cands[0]}
	withOrigin.Cands[0].HasOrigin = true
	withOrigin.Cands[0].Origin = c.Cands[0].Bug
	b := marshalCapsule(&withOrigin)
	off := 0
	for off < len(good) && good[off] == b[off] {
		off++
	}
	if off == len(good) || good[off] != 0 || b[off] != candHasOrigin {
		t.Fatalf("flags byte not found at offset %d", off)
	}
	forged := append([]byte(nil), good...)
	forged[off] = 8
	if _, ok := unmarshalCapsule(forged); ok {
		t.Error("unknown candidate flag bit accepted")
	}
}

func ptr[T any](v T) *T { return &v }
