package core_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/typestate"
)

// recordingCache is an in-memory core.EntryCache that keeps every payload
// written to it, by key.
type recordingCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (c *recordingCache) Load(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[key]
	return d, ok
}

func (c *recordingCache) Save(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), data...)
}

// sorted returns the recorded payloads in key order.
func (c *recordingCache) sorted() (keys []string, payloads [][]byte) {
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		payloads = append(payloads, c.m[k])
	}
	return keys, payloads
}

// wireConfig analyzes with every checker, so capsules carry the extension
// checkers' extra constraints, and with Stage-2 validation, so capsules
// carry verdicts.
func wireConfig(cache core.EntryCache) core.Config {
	cfg := core.Config{Checkers: typestate.AllCheckers(), Cache: cache}
	pathval.New().Install(&cfg)
	return cfg
}

// checkCapsuleWire pins one written capsule: it decodes; re-encoding the
// decoded wire struct reproduces the payload byte for byte and decodes to
// a DeepEqual struct; and replaying it against mod and lifting the replay
// back to wire form yields the same candidates, verdicts included.
func checkCapsuleWire(t *testing.T, key string, data []byte, mod *cir.Module, cfg core.Config) {
	t.Helper()
	w, ok := core.UnmarshalCapsuleWire(data)
	if !ok {
		t.Fatalf("%s: written capsule does not decode", key)
	}
	again := core.MarshalCapsuleWire(w)
	if !bytes.Equal(again, data) {
		t.Fatalf("%s: re-encoding the decoded capsule changed its bytes", key)
	}
	w2, ok := core.UnmarshalCapsuleWire(again)
	if !ok || !reflect.DeepEqual(w2, w) {
		t.Fatalf("%s: decode(encode(decode(b))) != decode(b)", key)
	}
	res, ok := core.ReplayCapsule(data, mod, cfg)
	if !ok {
		t.Fatalf("%s: written capsule does not replay against its module", key)
	}
	lifted, ok := core.CapsuleWireOf(res)
	if !ok {
		t.Fatalf("%s: replayed capsule is not representable", key)
	}
	if (len(lifted.Cands) > 0 || len(w.Cands) > 0) && !reflect.DeepEqual(lifted.Cands, w.Cands) {
		t.Fatalf("%s: replayed candidates lift to a different wire form:\n got %+v\nwant %+v",
			key, lifted.Cands, w.Cands)
	}
}

// TestCapsuleWireRoundTripCorpora: every capsule written while analyzing
// the four paper corpora (with the extension bugs seeded) and the paper's
// case studies survives the wire codec exactly, the verdicts it carries
// included.
func TestCapsuleWireRoundTripCorpora(t *testing.T) {
	type corpus struct {
		name    string
		sources map[string]string
	}
	var corpora []corpus
	for _, spec := range oscorpus.AllSpecs() {
		c := oscorpus.Generate(oscorpus.WithExtensions(spec))
		corpora = append(corpora, corpus{c.Spec.Name, c.Sources})
	}
	for _, cs := range oscorpus.PaperCases() {
		corpora = append(corpora, corpus{cs.Name, cs.Sources})
	}
	var capsules, verdicts, triggers, drops, extras, alts int
	for _, c := range corpora {
		mod, err := minicc.LowerAll(c.name, c.sources)
		if err != nil {
			t.Fatal(err)
		}
		cache := &recordingCache{m: make(map[string][]byte)}
		cfg := wireConfig(cache)
		core.RunParallel(mod, cfg, 2)
		keys, payloads := cache.sorted()
		for i, key := range keys {
			if !strings.HasPrefix(key, "e") {
				t.Fatalf("unexpected cache key %q", key)
			}
			checkCapsuleWire(t, c.name+"/"+key, payloads[i], mod, cfg)
			capsules++
			w, _ := core.UnmarshalCapsuleWire(payloads[i])
			for _, cand := range w.Cands {
				if cand.Extra != nil {
					extras++
				}
				alts += len(cand.Alts)
				if v := cand.Verdict; v != nil {
					verdicts++
					if len(v.Trigger) > 0 {
						triggers++
					}
					if !v.Feasible {
						drops++
					}
				}
			}
		}
	}
	t.Logf("%d capsules (%d extra constraints, %d alternate paths, %d verdicts: %d with a trigger, %d infeasible)",
		capsules, extras, alts, verdicts, triggers, drops)
	if capsules == 0 || verdicts == 0 || triggers == 0 || drops == 0 || extras == 0 || alts == 0 {
		t.Fatal("corpora did not exercise every part of the wire format")
	}
}

// fuzzSeeds returns the capsules written while analyzing the round-trip
// test program, plus the module and configuration to replay them against.
func fuzzSeeds(f *testing.F) (capsules [][]byte, mod *cir.Module, cfg core.Config) {
	mod, err := minicc.LowerAll("capsule", map[string]string{"capsule.c": roundTripSrc})
	if err != nil {
		f.Fatal(err)
	}
	cache := &recordingCache{m: make(map[string][]byte)}
	cfg = wireConfig(cache)
	core.RunParallel(mod, cfg, 2)
	_, capsules = cache.sorted()
	verdicts := 0
	for _, data := range capsules {
		w, _ := core.UnmarshalCapsuleWire(data)
		for _, cand := range w.Cands {
			if cand.Verdict != nil {
				verdicts++
			}
		}
	}
	if len(capsules) == 0 || verdicts == 0 {
		f.Fatal("round-trip program wrote no capsules or no verdicts")
	}
	return capsules, mod, cfg
}

// allocBound is the most a decode may allocate for an input of n bytes.
// Every length prefix is checked against the bytes that remain, and no
// decoded element is more than about 24 bytes per input byte it
// consumes (a candidate takes at least 11 bytes, a path step 3, a table
// string or alternate path 1).
func allocBound(n int) uint64 { return 32*uint64(n) + 4096 }

// heapAllocs reads the process's cumulative heap allocation, including
// the small objects still sitting in per-P caches (runtime/metrics would
// miss those until their span is refilled).
func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// decodeOverBound runs decode and reports whether it allocated more than
// bound bytes. The fuzzing worker's own goroutines allocate too, so an
// overrun is re-measured twice and only counts if every run overran.
func decodeOverBound(bound uint64, decode func()) (uint64, bool) {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3 && least > bound; i++ {
		before := heapAllocs()
		decode()
		least = min(least, heapAllocs()-before)
	}
	return least, least > bound
}

// fuzzDecodeCapsule is the property both decoder fuzz targets check:
// decoding arbitrary bytes never panics, never allocates more than the
// input's length implies, and any accepted input is a fixed point of
// decode∘encode. Accepted inputs are also replayed against mod, which
// must not panic either.
func fuzzDecodeCapsule(t *testing.T, data []byte, mod *cir.Module, cfg core.Config) {
	var w core.CapsuleWire
	var ok bool
	if n, over := decodeOverBound(allocBound(len(data)), func() { w, ok = core.UnmarshalCapsuleWire(data) }); over {
		t.Fatalf("decoding %d bytes allocated %d", len(data), n)
	}
	if !ok {
		return
	}
	w2, ok := core.UnmarshalCapsuleWire(core.MarshalCapsuleWire(w))
	if !ok || !reflect.DeepEqual(w2, w) {
		t.Fatalf("decode(encode(decode(b))) != decode(b):\n got %+v\nwant %+v", w2, w)
	}
	core.ReplayCapsule(data, mod, cfg)
}

// FuzzDecodeCapsule checks fuzzDecodeCapsule from the capsules written
// while analyzing the round-trip program.
func FuzzDecodeCapsule(f *testing.F) {
	capsules, mod, cfg := fuzzSeeds(f)
	for _, c := range capsules {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzDecodeCapsule(t, data, mod, cfg) })
}

// FuzzDecodeVerdict checks fuzzDecodeCapsule from one-candidate capsules
// that vary the candidate's flag-gated verdict: absent, flagged with an
// empty and a non-empty trigger, each also truncated, and with an unknown
// flag bit.
func FuzzDecodeVerdict(f *testing.F) {
	_, mod, cfg := fuzzSeeds(f)
	cand := core.CapsuleWire{Cands: []core.CandWire{{
		Checker: "NPD",
		EntryFn: "entry_npd",
		InFn:    "helper_deref",
	}}}
	for _, v := range []*core.VerdictWire{
		nil,
		{Feasible: true, Constraints: 4, ConstraintsUnaware: 6},
		{Feasible: true, Constraints: 2, Trigger: []string{"p = 0", "flag = 1"}},
		{Constraints: 9, ConstraintsUnaware: 11},
	} {
		cand.Cands[0].Verdict = v
		data := core.MarshalCapsuleWire(cand)
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	// An unknown flag bit, in the flags byte located as the first byte
	// that changes when the candidate gains a verdict.
	cand.Cands[0].Verdict = nil
	plain := core.MarshalCapsuleWire(cand)
	cand.Cands[0].Verdict = &core.VerdictWire{}
	flagged := core.MarshalCapsuleWire(cand)
	off := 0
	for plain[off] == flagged[off] {
		off++
	}
	forged := append([]byte(nil), flagged...)
	forged[off] |= 8
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzDecodeCapsule(t, data, mod, cfg) })
}
