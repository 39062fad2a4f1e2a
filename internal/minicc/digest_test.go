package minicc

import (
	"bufio"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/cir"
	"repro/internal/cir/cirtest"
	"repro/internal/oscorpus"
)

// digestCorpus is one named LowerAll input.
type digestCorpus struct {
	name    string
	sources map[string]string
}

var (
	digestOnce    sync.Once
	digestCorpora []digestCorpus
)

// scaledSpec mirrors the benchmark's workload scaling: oscorpus.Scaled
// multiplies files, filler, bugs and traps, and the helper and validation
// clusters are scaled here too, with the seed offset by seed.
func scaledSpec(base oscorpus.OSSpec, factor int, seed int64) oscorpus.OSSpec {
	out := oscorpus.Scaled(base, factor)
	cats := make([]oscorpus.CatSpec, len(out.Cats))
	for i, c := range out.Cats {
		c.Helpers = base.Cats[i].Helpers * factor
		c.Validation = base.Cats[i].Validation * factor
		cats[i] = c
	}
	out.Cats = cats
	out.Seed += seed
	return out
}

// frontendCorpora returns the corpora the frontend equivalence tests lower:
// the four paper corpora, the helper-heavy, validate-heavy and extension
// corpora, the benchmark's seed-1 scaled workloads and the case studies.
func frontendCorpora() []digestCorpus {
	digestOnce.Do(func() {
		specs := []struct {
			name string
			spec oscorpus.OSSpec
		}{
			{"linux", oscorpus.LinuxSpec()},
			{"zephyr", oscorpus.ZephyrSpec()},
			{"riot", oscorpus.RIOTSpec()},
			{"tencent", oscorpus.TencentSpec()},
			{"helper-heavy", oscorpus.HelperHeavySpec()},
			{"validate-heavy", oscorpus.ValidationHeavySpec()},
			{"linux-ext", oscorpus.WithRepoExtensions(oscorpus.LinuxSpec())},
			{"linux-x4-seed1", scaledSpec(oscorpus.LinuxSpec(), 4, 1)},
			{"validate-x12-seed1", scaledSpec(oscorpus.ValidationHeavySpec(), 12, 1)},
			{"helper-x6-seed1", scaledSpec(oscorpus.HelperHeavySpec(), 6, 1)},
		}
		for _, s := range specs {
			digestCorpora = append(digestCorpora, digestCorpus{s.name, oscorpus.Generate(s.spec).Sources})
		}
		for _, cs := range oscorpus.PaperCases() {
			digestCorpora = append(digestCorpora, digestCorpus{"case/" + cs.Name, cs.Sources})
		}
	})
	return digestCorpora
}

// moduleDigest hashes everything LowerAll produces (cirtest.Digest).
func moduleDigest(mod *cir.Module) string { return cirtest.Digest(mod) }

// lowerDigest lowers sources and returns the module digest, or the error
// text when lowering fails.
func lowerDigest(name string, sources map[string]string) string {
	mod, err := LowerAll(name, sources)
	if err != nil {
		return "error: " + err.Error()
	}
	return moduleDigest(mod)
}

func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestLowerAllDigest pins LowerAll's complete output on every frontend
// corpus against digests recorded with the sequential, one-file-at-a-time
// frontend, so a change to how the frontend schedules its work cannot
// change what it produces.
func TestLowerAllDigest(t *testing.T) {
	want := readDigests(t, "testdata/lowerall_digests.txt")
	corpora := frontendCorpora()
	if len(want) != len(corpora) {
		t.Errorf("testdata has %d digests for %d corpora", len(want), len(corpora))
	}
	for _, c := range corpora {
		got := lowerDigest(c.name, c.sources)
		if got != want[c.name] {
			t.Errorf("%s: digest %s, recorded %s", c.name, got, want[c.name])
		}
	}
}
