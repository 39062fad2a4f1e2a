package pata

import (
	"context"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/acache"
	"repro/internal/callgraph"
	"repro/internal/cir"
	"repro/internal/oscorpus"
)

// checkDerivedGraph checks the graph Update derived for next from prev
// against callgraph.Build of next's module — Callees, Callers, the entry
// list pointer for pointer, and every entry's key at salt 0 and at a
// non-zero salt — and Update's changed functions and frontier against
// bruteDiff.
func checkDerivedGraph(t *testing.T, prev, next *Program, changed, frontier []string) {
	t.Helper()
	if !next.derivedFrom(prev) {
		t.Fatal("Update built the next graph instead of deriving it")
	}
	got, want := next.graph(), callgraph.Build(next.low.Mod)
	for _, m := range []struct {
		name      string
		got, want map[string][]string
	}{{"Callees", got.Callees, want.Callees}, {"Callers", got.Callers, want.Callers}} {
		for _, name := range mapKeys(m.got, m.want) {
			g, gok := m.got[name]
			w, wok := m.want[name]
			if gok != wok || !slices.Equal(g, w) {
				t.Errorf("derived %s[%s] = %v (present %v), Build's %v (present %v)", m.name, name, g, gok, w, wok)
			}
		}
	}
	entries := got.EntryFunctions()
	if !slices.Equal(entries, want.EntryFunctions()) {
		t.Errorf("derived entries %v, Build's %v", names(entries), names(want.EntryFunctions()))
	}
	for _, fn := range entries {
		for _, salt := range []uint64{0, 0x9e3779b97f4a7c15} {
			if g, w := got.EntryKey(fn, salt), want.EntryKey(fn, salt); g != w {
				t.Errorf("EntryKey(%s, %#x): derived %#x, Build's %#x", fn.Name, salt, g, w)
			}
		}
	}
	wchanged, wfrontier := bruteDiff(prev.low.Mod, next.low.Mod)
	if !slices.Equal(changed, wchanged) || !slices.Equal(frontier, wfrontier) {
		t.Errorf("Update changed %v, frontier %v; re-keying every entry: changed %v, frontier %v",
			changed, frontier, wchanged, wfrontier)
	}
}

// bruteDiff is what Update's changed functions and frontier mean, computed
// from scratch: every name of either module compared by definedness and
// fingerprint, and every entry of next re-keyed at salt 0 on graphs built
// anew for both modules.
func bruteDiff(prev, next *cir.Module) (changed, frontier []string) {
	for _, name := range mapKeys(prev.Funcs, next.Funcs) {
		of, nf := prev.Funcs[name], next.Funcs[name]
		od, nd := of != nil && !of.IsDecl(), nf != nil && !nf.IsDecl()
		if od != nd || od && of.Fingerprint() != nf.Fingerprint() {
			changed = append(changed, name)
		}
	}
	pg, ng := callgraph.Build(prev), callgraph.Build(next)
	for _, fn := range ng.EntryFunctions() {
		if !pg.IsEntry(fn.Name) || pg.EntryKey(prev.Funcs[fn.Name], 0) != ng.EntryKey(fn, 0) {
			frontier = append(frontier, fn.Name)
		}
	}
	return changed, frontier
}

// mapKeys returns the union of a's and b's keys, sorted.
func mapKeys[V any](a, b map[string]V) []string {
	var out []string
	for k := range a {
		out = append(out, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

func names(fns []*cir.Function) []string {
	var out []string
	for _, fn := range fns {
		out = append(out, fn.Name)
	}
	return out
}

// callEdgeEdits is a chain of edits to updateBase that move call edges,
// each applied to the sources the one before it left. All of them take
// Update's Relower path.
var callEdgeEdits = []struct{ name, file, old, new string }{
	// helper loses its only caller and becomes an entry; the entry
	// use_local gains a caller and stops being one.
	{"retarget a call", "a.c", "return helper(d) +", "return use_local(d->flags) +"},
	{"call an undeclared function", "b.c", "return 0;", "return new_ext(d->flags);"},
	{"remove a function's last caller", "b.c", "return local(y);", "return y;"},
	{"give an entry a caller", "c.c", "kfree(p);\n\treturn 0;", "kfree(p);\n\treturn uses_ext();"},
	{"drop the undeclared call", "b.c", "return new_ext(d->flags);", "return 0;"},
	{"restore the call", "a.c", "return use_local(d->flags) +", "return helper(d) +"},
}

// applyEdit returns the one-file edit that replaces old by new in
// sources[file].
func applyEdit(t *testing.T, sources map[string]string, file, old, new string) map[string]string {
	t.Helper()
	if !strings.Contains(sources[file], old) {
		t.Fatalf("%s lacks %q", file, old)
	}
	return map[string]string{file: strings.Replace(sources[file], old, new, 1)}
}

// editOf returns the files edited changes in sources.
func editOf(sources, edited map[string]string) map[string]string {
	set := make(map[string]string)
	for name, src := range edited {
		if src != sources[name] {
			set[name] = src
		}
	}
	return set
}

// scaledCorpus generates spec scaled by factor as the bench scales its
// corpora: oscorpus.Scaled, with the helper and validation clusters scaled
// too.
func scaledCorpus(spec oscorpus.OSSpec, factor int) *oscorpus.Corpus {
	out := oscorpus.Scaled(spec, factor)
	out.Cats = slices.Clone(out.Cats)
	for i := range out.Cats {
		out.Cats[i].Helpers = spec.Cats[i].Helpers * factor
		out.Cats[i].Validation = spec.Cats[i].Validation * factor
	}
	return oscorpus.Generate(out)
}

// TestDeriveMatchesBuild walks edit chains through Update's Relower path,
// each epoch's graph derived from the one before, and checks every
// derived graph with checkDerivedGraph: oscorpus.Mutate chains on the
// bench's linux-like ×4, helper-heavy ×6 and validate-heavy ×12 corpora,
// and callEdgeEdits, through checkUpdate, on updateBase.
func TestDeriveMatchesBuild(t *testing.T) {
	steps := 5
	if testing.Short() {
		steps = 2
	}
	for _, c := range []struct {
		name  string
		spec  oscorpus.OSSpec
		scale int
	}{
		{"linux x4", oscorpus.LinuxSpec(), 4},
		{"helper x6", oscorpus.HelperHeavySpec(), 6},
		{"validate x12", oscorpus.ValidationHeavySpec(), 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			corpus := scaledCorpus(c.spec, c.scale)
			prog, err := Load(corpus.Spec.Name, corpus.Sources)
			if err != nil {
				t.Fatal(err)
			}
			sources := corpus.Sources
			for step := 1; step <= steps; step++ {
				edited, _ := oscorpus.Mutate(sources, 2, int64(step))
				next, changed, frontier, err := prog.Update(editOf(sources, edited), nil)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkDerivedGraph(t, prog, next, changed, frontier)
				prog, sources = next, edited
			}
		})
	}
	t.Run("call edges", func(t *testing.T) {
		prog, err := Load("m", updateBase)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range callEdgeEdits {
			ok := t.Run(e.name, func(t *testing.T) {
				next := checkUpdate(t, prog, applyEdit(t, prog.sources, e.file, e.old, e.new), nil)
				if !next.derivedFrom(prog) {
					t.Fatal("Update built the next graph instead of deriving it")
				}
				prog = next
			})
			if !ok {
				break // the rest of the chain edits what this step left
			}
		}
	})
}

// graphSnapshot is a deep copy of what a Graph publishes: its maps, with
// each slice copied up to its capacity (so an append into a shared slice
// shows), its entry list and every entry's salt-0 key.
type graphSnapshot struct {
	callees, callers map[string][]string
	entries          []*cir.Function
	keys             []uint64
}

func snapshot(g *callgraph.Graph) graphSnapshot {
	full := func(m map[string][]string) map[string][]string {
		out := make(map[string][]string, len(m))
		for k, v := range m {
			out[k] = slices.Clone(v[:cap(v)])
		}
		return out
	}
	s := graphSnapshot{callees: full(g.Callees), callers: full(g.Callers), entries: g.EntryFunctions()}
	for _, fn := range s.entries {
		s.keys = append(s.keys, g.EntryKey(fn, 0))
	}
	return s
}

// TestDeriveLeavesPreviousGraph derives several next epochs from one
// Program while a cached Analyze of it runs (the race detector checks the
// overlap), and checks that the Program's graph — maps, slices, entry list
// and memoized key bases — is unchanged afterwards. It runs Mutate edits
// on the linux-like corpus and the call-edge edits on updateBase.
func TestDeriveLeavesPreviousGraph(t *testing.T) {
	linux := oscorpus.Generate(oscorpus.LinuxSpec())
	var linuxEdits, baseEdits []map[string]string
	for seed := range int64(3) {
		edited, _ := oscorpus.Mutate(linux.Sources, 2, seed+1)
		linuxEdits = append(linuxEdits, editOf(linux.Sources, edited))
	}
	for _, e := range callEdgeEdits {
		if strings.Contains(updateBase[e.file], e.old) {
			baseEdits = append(baseEdits, applyEdit(t, updateBase, e.file, e.old, e.new))
		}
	}
	ec, err := Config{}.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		sources map[string]string
		edits   []map[string]string
	}{{"linux", linux.Sources, linuxEdits}, {"call edges", updateBase, baseEdits}} {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Load("m", c.sources)
			if err != nil {
				t.Fatal(err)
			}
			store, err := acache.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			cached := ec
			cached.Cache = store
			prog.Index()
			prog.Analyze(context.Background(), cached, 2, false) // fills the store
			before := snapshot(prog.graph())

			done := make(chan *Result)
			go func() { done <- prog.Analyze(context.Background(), cached, 2, false) }()
			for _, set := range c.edits {
				next, _, _, err := prog.Update(set, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !next.derivedFrom(prog) {
					t.Fatal("Update built the next graph instead of deriving it")
				}
				next.Analyze(context.Background(), cached, 2, false)
			}
			<-done

			after := snapshot(prog.graph())
			if !maps.EqualFunc(before.callees, after.callees, slices.Equal) {
				t.Error("deriving changed the previous graph's Callees")
			}
			if !maps.EqualFunc(before.callers, after.callers, slices.Equal) {
				t.Error("deriving changed the previous graph's Callers")
			}
			if !slices.Equal(before.entries, after.entries) {
				t.Error("deriving changed the previous graph's entries")
			}
			if !reflect.DeepEqual(before.keys, after.keys) {
				t.Error("deriving changed the previous graph's key bases")
			}
		})
	}
}
