package pata

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const demoSrc = `
struct dev { int flags; };
int probe(struct dev *d) {
	if (!d)
		return d->flags;
	return 0;
}`

func TestAnalyzeSources(t *testing.T) {
	res, err := AnalyzeSources("demo", map[string]string{"demo.c": demoSrc}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 1 {
		t.Fatalf("bugs = %d, want 1", len(res.Bugs))
	}
	b := res.Bugs[0]
	if b.Type != "NPD" || b.File != "demo.c" || b.Line != 5 || !b.Validated {
		t.Errorf("bug = %+v", b)
	}
	if b.Function != "probe" || b.EntryFunction != "probe" {
		t.Errorf("function attribution: %+v", b)
	}
}

func TestAnalyzeSourcesCheckerSelection(t *testing.T) {
	src := map[string]string{"a.c": `
int rate(int total, int period) {
	if (period == 0)
		return total / period;
	return total / period;
}`}
	res, err := AnalyzeSources("m", src, Config{Checkers: []string{"dbz"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 1 || res.Bugs[0].Type != "DBZ" {
		t.Errorf("bugs = %+v", res.Bugs)
	}
	if _, err := AnalyzeSources("m", src, Config{Checkers: []string{"bogus"}}); err == nil {
		t.Error("unknown checker accepted")
	}
	if _, err := AnalyzeSources("m", src, Config{Checkers: []string{"all"}}); err != nil {
		t.Errorf("\"all\" rejected: %v", err)
	}
}

func TestAnalyzeSourcesNoAlias(t *testing.T) {
	src := map[string]string{"a.c": `
struct srv { int frnd; };
struct model { void *user_data; };
static void status(struct model *m) {
	struct srv *cfg = (struct srv *)m->user_data;
	use(cfg->frnd);
}
static void entry_fn(struct model *m) {
	struct srv *cfg = (struct srv *)m->user_data;
	if (!cfg)
		status(m);
}`}
	full, err := AnalyzeSources("m", src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	na, err := AnalyzeSources("m", src, Config{NoAlias: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Bugs) == 0 {
		t.Error("PATA should find the alias-chain bug")
	}
	if len(na.Bugs) >= len(full.Bugs) {
		t.Errorf("NoAlias should find fewer bugs: %d vs %d", len(na.Bugs), len(full.Bugs))
	}
}

func TestAnalyzeSourcesSkipValidation(t *testing.T) {
	src := map[string]string{"a.c": `
void func(char *p) {
	int x = 3;
	if (x == 5) {
		if (!p)
			use(*p);
	}
}`}
	validated, err := AnalyzeSources("m", src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := AnalyzeSources("m", src, Config{SkipValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(validated.Bugs) != 0 {
		t.Error("validation should drop the dead-code bug")
	}
	if len(raw.Bugs) == 0 {
		t.Error("without validation the candidate should be reported")
	}
	if raw.Bugs[0].Validated {
		t.Error("unvalidated bug marked validated")
	}
}

func TestAnalyzeFilesAndDir(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "drivers")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(sub, "demo.c")
	if err := os.WriteFile(file, []byte(demoSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeFilesCtx(context.Background(), []string{file}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 1 {
		t.Errorf("AnalyzeFilesCtx bugs = %d", len(res.Bugs))
	}
	res, err = AnalyzeDirCtx(context.Background(), dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 1 {
		t.Errorf("AnalyzeDirCtx bugs = %d", len(res.Bugs))
	}
	if _, err := AnalyzeDirCtx(context.Background(), t.TempDir(), Config{}); err == nil {
		t.Error("empty dir should error")
	}
}

func TestFrontendErrorSurfaces(t *testing.T) {
	_, err := AnalyzeSources("m", map[string]string{"bad.c": "int f( {"}, Config{})
	if err == nil || !strings.Contains(err.Error(), "frontend") {
		t.Errorf("err = %v", err)
	}
}

func TestResultString(t *testing.T) {
	res, err := AnalyzeSources("demo", map[string]string{"demo.c": demoSrc}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"NPD", "demo.c:5", "probe", "validated"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFPRateHint(t *testing.T) {
	res, err := AnalyzeSources("m", map[string]string{"a.c": `
void func(char *p) {
	int x = 3;
	if (x == 5) {
		if (!p)
			use(*p);
	}
	if (!p)
		use(*p);
}`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 2 drops the infeasible x == 5 candidate and reports the
	// reachable one.
	if res.Stats.FalseDropped <= 0 || len(res.Bugs) == 0 {
		t.Errorf("FalseDropped = %d, bugs = %d, want both > 0", res.Stats.FalseDropped, len(res.Bugs))
	}
}

func TestWitnessAndTriggerExposed(t *testing.T) {
	res, err := AnalyzeSources("demo", map[string]string{"demo.c": `
struct dev { int flags; };
int probe(struct dev *d, int n) {
	if (n > 3) {
		if (!d)
			return d->flags;
	}
	return 0;
}`}, Config{WitnessPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 1 {
		t.Fatalf("bugs = %d", len(res.Bugs))
	}
	b := res.Bugs[0]
	if len(b.Witness) == 0 {
		t.Error("witness path not rendered")
	}
	joined := strings.Join(b.Trigger, " ")
	if !strings.Contains(joined, "d = 0") || !strings.Contains(joined, "n = 4") {
		t.Errorf("trigger = %v", b.Trigger)
	}
	if len(b.AliasSet) == 0 {
		t.Error("alias set missing")
	}
}
