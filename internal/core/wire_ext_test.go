package core_test

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

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

// checkCapsuleWire pins one written capsule: it decodes against its
// module, and encoding the decoded Result reproduces the payload byte for
// byte, stats, candidates and verdicts included.
func checkCapsuleWire(t *testing.T, key string, data []byte, decode func([]byte) (*core.Result, bool)) *core.Result {
	t.Helper()
	res, ok := decode(data)
	if !ok {
		t.Fatalf("%s: written capsule does not decode against its module", key)
	}
	again, ok := core.EncodeCapsule(res)
	if !ok {
		t.Fatalf("%s: decoded capsule is not representable", key)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("%s: re-encoding the decoded capsule changed its bytes", key)
	}
	return res
}

// TestCapsuleWireRoundTripCorpora: every capsule written while analyzing
// the four paper corpora (with the extension bugs seeded) and the paper's
// case studies decodes against its module and re-encodes byte for byte,
// the verdicts it carries included.
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
		decode := core.ReplayCapsule(mod, cfg)
		keys, payloads := cache.sorted()
		for i, key := range keys {
			if !strings.HasPrefix(key, "e") {
				t.Fatalf("unexpected cache key %q", key)
			}
			res := checkCapsuleWire(t, c.name+"/"+key, payloads[i], decode)
			capsules++
			for _, pb := range res.Possible {
				if pb.Extra != nil {
					extras++
				}
				alts += len(pb.AltPaths)
				if v, ok := core.StoredVerdict(pb); ok {
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
// test program, plus the decoder that replays them against its module.
func fuzzSeeds(f *testing.F) (capsules [][]byte, decode func([]byte) (*core.Result, bool)) {
	mod, err := minicc.LowerAll("capsule", map[string]string{"capsule.c": roundTripSrc})
	if err != nil {
		f.Fatal(err)
	}
	cache := &recordingCache{m: make(map[string][]byte)}
	cfg := wireConfig(cache)
	core.RunParallel(mod, cfg, 2)
	_, capsules = cache.sorted()
	decode = core.ReplayCapsule(mod, cfg)
	verdicts := 0
	for _, data := range capsules {
		res, ok := decode(data)
		if !ok {
			f.Fatal("written capsule does not decode")
		}
		for _, pb := range res.Possible {
			if _, ok := core.StoredVerdict(pb); ok {
				verdicts++
			}
		}
	}
	if len(capsules) == 0 || verdicts == 0 {
		f.Fatal("round-trip program wrote no capsules or no verdicts")
	}
	return capsules, decode
}

// allocBound is the most a decode may allocate for an input of n bytes.
// Every length prefix is checked against the bytes that remain, and no
// decoded element is more than about 27 bytes per input byte it
// consumes (a candidate, 208 bytes plus its 8-byte slot, takes at least
// 11; a 24-byte path step 3; a table string or an alternate path 1).
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
// decoding arbitrary bytes against the round-trip module never panics and
// never allocates more than the input's length implies, and encoding any
// accepted input's Result gives bytes that decode and re-encode to
// themselves.
func fuzzDecodeCapsule(t *testing.T, data []byte, decode func([]byte) (*core.Result, bool)) {
	var res *core.Result
	var ok bool
	if n, over := decodeOverBound(allocBound(len(data)), func() { res, ok = decode(data) }); over {
		t.Fatalf("decoding %d bytes allocated %d", len(data), n)
	}
	if !ok {
		return
	}
	enc, ok := core.EncodeCapsule(res)
	if !ok {
		t.Fatal("an accepted capsule's Result does not encode")
	}
	res2, ok := decode(enc)
	if !ok {
		t.Fatal("encode(decode(b)) does not decode")
	}
	if again, ok := core.EncodeCapsule(res2); !ok || !bytes.Equal(again, enc) {
		t.Fatalf("encode(decode(encode(decode(b)))) != encode(decode(b)):\n got %x\nwant %x", again, enc)
	}
}

// FuzzDecodeCapsule checks fuzzDecodeCapsule from the capsules written
// while analyzing the round-trip program.
func FuzzDecodeCapsule(f *testing.F) {
	capsules, decode := fuzzSeeds(f)
	for _, c := range capsules {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzDecodeCapsule(t, data, decode) })
}

// FuzzDecodeVerdict checks fuzzDecodeCapsule from a written capsule whose
// first candidate's flag-gated verdict is varied: absent, feasible with an
// empty and with a non-empty trigger, and infeasible, each also truncated,
// and with an unknown flag bit.
func FuzzDecodeVerdict(f *testing.F) {
	capsules, decode := fuzzSeeds(f)
	var res *core.Result
	for _, data := range capsules {
		if r, ok := decode(data); ok && len(r.Possible) > 0 {
			res = r
			break
		}
	}
	if res == nil {
		f.Fatal("no written capsule has a candidate")
	}
	pb := res.Possible[0]
	encode := func(v *core.ValidationOutcome) []byte {
		core.SetStoredVerdict(pb, v)
		data, ok := core.EncodeCapsule(res)
		if !ok {
			f.Fatal("seed capsule does not encode")
		}
		return data
	}
	for _, v := range []*core.ValidationOutcome{
		nil,
		{Feasible: true, Constraints: 4, ConstraintsUnaware: 6},
		{Feasible: true, Constraints: 2, Trigger: []string{"p = 0", "flag = 1"}},
		{Constraints: 9, ConstraintsUnaware: 11},
	} {
		data := encode(v)
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	// An unknown flag bit, in the flags byte located as the first byte
	// that changes when the candidate gains a verdict.
	plain := encode(nil)
	flagged := encode(&core.ValidationOutcome{})
	off := 0
	for plain[off] == flagged[off] {
		off++
	}
	forged := append([]byte(nil), flagged...)
	forged[off] |= 8
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzDecodeCapsule(t, data, decode) })
}

// BenchmarkDecodeCapsules decodes every capsule a cold run writes over the
// linux-like corpus ×4 (the serve-edit workload's corpus), the way a warm
// run decodes its hits; checkers are indexed once, outside the loop.
func BenchmarkDecodeCapsules(b *testing.B) {
	c := oscorpus.Generate(oscorpus.Scaled(oscorpus.LinuxSpec(), 4))
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	cache := &recordingCache{m: make(map[string][]byte)}
	cfg := core.Config{Cache: cache}
	pathval.New().Install(&cfg)
	core.RunParallel(mod, cfg, 2)
	_, payloads := cache.sorted()
	decode := core.ReplayCapsule(mod, cfg)
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, p := range payloads {
			if _, ok := decode(p); !ok {
				b.Fatal("written capsule does not decode")
			}
		}
	}
	b.ReportMetric(float64(len(payloads)), "capsules/op")
	b.ReportMetric(float64(size)/1024, "payload-KB")
}
