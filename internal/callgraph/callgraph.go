// Package callgraph builds the function-information database of the paper's
// P1 phase: direct call edges across all lowered source files, and the set
// of entry functions — functions with no explicit caller in the analyzed
// code, such as driver interface functions installed via ops structs
// (Figure 1). Entry functions are where the path-sensitive analysis starts.
//
// A Graph is immutable once built. Build walks every function; Derive
// makes the graph of an edited module from its predecessor's, sharing the
// call-edge slices and entry key bases the edit cannot have moved, as the
// paper's P1 updates the database for a recompiled file.
package callgraph

import (
	"maps"
	"slices"
	"strings"
	"sync"

	"repro/internal/cir"
	"repro/internal/hmix"
)

// Graph is the module call graph. Its maps and slices may be shared with
// graphs derived from it, so they are never written after construction.
type Graph struct {
	Mod *cir.Module
	// Callees maps a function to the set of functions it calls directly.
	Callees map[string][]string
	// Callers maps a function to its direct callers.
	Callers map[string][]string

	// entries memoizes EntryFunctions: the scan sorts every module function
	// by name, and RunParallel's per-entry engines ask for the list once per
	// entry, which made the recomputation quadratic in module size.
	entriesOnce sync.Once
	entries     []*cir.Function

	// bases memoizes EntryKey's salt-free part per function, so keying
	// every entry under a second salt costs one mix each.
	basesMu sync.Mutex
	bases   map[*cir.Function]uint64
}

// Build constructs the call graph of mod.
func Build(mod *cir.Module) *Graph {
	g := &Graph{
		Mod:     mod,
		Callees: make(map[string][]string),
		Callers: make(map[string][]string),
	}
	for name, fn := range mod.Funcs {
		if callees := calleesOf(fn); callees != nil {
			g.Callees[name] = callees
		}
	}
	for name, callees := range g.Callees {
		for _, c := range callees {
			g.Callers[c] = append(g.Callers[c], name)
		}
	}
	for _, callers := range g.Callers {
		slices.Sort(callers)
	}
	return g
}

// calleesOf returns the names fn calls directly, sorted and without
// duplicates, or nil when it calls none.
func calleesOf(fn *cir.Function) []string {
	var callees []string
	fn.Instrs(func(in cir.Instr) {
		if call, ok := in.(*cir.Call); ok {
			callees = append(callees, call.Callee)
		}
	})
	slices.Sort(callees)
	return slices.Compact(callees)
}

// Delta is what Derive found changed between a graph and the one it
// derived.
type Delta struct {
	// Changed lists, in name order, the functions that differ between the
	// two modules: added and removed names and new function objects, save
	// a declaration that is a declaration in both.
	Changed []string
	// Rekeyed lists, in name order, the derived graph's entries whose key
	// base was not carried over: those that reach a changed function, and
	// those that were not entries before. Every other entry's key is
	// unchanged.
	Rekeyed []*cir.Function
}

// Derive returns the call graph of mod, a module made from g.Mod by an edit
// that left every function it did not touch in place, pointer for pointer
// (as minicc.Lowered.Relower does), and what the edit changed.
//
// Only a changed function's out-edges can move, so Derive recomputes just
// those, gives each callee that gains or loses a caller a new Callers
// slice, and shares every other slice with g. The entry list is g's with
// the names whose status or function may have moved merged back in name
// order. Every entry that reaches no changed function — none is in the
// reverse closure of the changed names over the new Callers — has the
// same reachable set, with the same fingerprints, as in g, so it keeps the
// key base g memoized for it. Derive only reads g, so analyses of g may
// run meanwhile.
func (g *Graph) Derive(mod *cir.Module) (*Graph, Delta) {
	d := Delta{Changed: changedNames(g.Mod, mod)}
	next := &Graph{Mod: mod, Callees: maps.Clone(g.Callees), Callers: maps.Clone(g.Callers)}
	callers := make(map[string][]string) // new Callers of the callees whose callers moved
	patch := func(callee string) []string {
		cs, ok := callers[callee]
		if !ok {
			cs = slices.Clone(g.Callers[callee])
		}
		return cs
	}
	for _, name := range d.Changed {
		var now []string
		if fn := mod.Funcs[name]; fn != nil {
			now = calleesOf(fn)
		}
		was := g.Callees[name]
		if slices.Equal(was, now) {
			continue
		}
		if now == nil {
			delete(next.Callees, name)
		} else {
			next.Callees[name] = now
		}
		for _, c := range was {
			if _, kept := slices.BinarySearch(now, c); !kept {
				cs := patch(c)
				i := slices.Index(cs, name)
				callers[c] = slices.Delete(cs, i, i+1)
			}
		}
		for _, c := range now {
			if _, had := slices.BinarySearch(was, c); !had {
				callers[c] = append(patch(c), name)
			}
		}
	}
	for c, cs := range callers {
		if len(cs) == 0 {
			delete(next.Callers, c)
		} else {
			slices.Sort(cs)
			next.Callers[c] = cs
		}
	}

	// Entry status can move only for a changed name or a callee whose
	// callers moved; every other entry keeps its place and function.
	moved := slices.Clone(d.Changed)
	for c := range callers {
		moved = append(moved, c)
	}
	slices.Sort(moved)
	moved = slices.Compact(moved)
	var joined []*cir.Function
	for _, name := range moved {
		if next.IsEntry(name) {
			joined = append(joined, mod.Funcs[name])
		}
	}
	entries := mergeEntries(g.entryList(), moved, joined)
	next.entriesOnce.Do(func() { next.entries = entries })

	tainted := reverseClosure(next.Callers, d.Changed)
	g.basesMu.Lock()
	next.bases = maps.Clone(g.bases)
	g.basesMu.Unlock()
	for name := range tainted {
		if fn := g.Mod.Funcs[name]; fn != nil {
			delete(next.bases, fn)
		}
		if next.IsEntry(name) {
			d.Rekeyed = append(d.Rekeyed, mod.Funcs[name])
		}
	}
	for _, fn := range joined {
		if !tainted[fn.Name] && !g.IsEntry(fn.Name) {
			d.Rekeyed = append(d.Rekeyed, fn)
		}
	}
	slices.SortFunc(d.Rekeyed, byName)
	return next, d
}

// changedNames returns, in name order, the names whose function differs
// between old and mod: added and removed names and new function objects,
// save a declaration in both, since Relower re-creates implicit
// declarations every time.
func changedNames(old, mod *cir.Module) []string {
	var changed []string
	common := 0
	for name, fn := range mod.Funcs {
		was, ok := old.Funcs[name]
		if ok {
			common++
		}
		if !ok || was != fn && !(was.IsDecl() && fn.IsDecl()) {
			changed = append(changed, name)
		}
	}
	if common < len(old.Funcs) {
		for name := range old.Funcs {
			if _, ok := mod.Funcs[name]; !ok {
				changed = append(changed, name)
			}
		}
	}
	slices.Sort(changed)
	return changed
}

// mergeEntries returns the name-ordered entry list old with every name in
// moved (sorted) taken out and the entries joined (sorted, named in moved)
// put in. Only the moved names are compared; the runs of old between them
// are copied whole.
func mergeEntries(old []*cir.Function, moved []string, joined []*cir.Function) []*cir.Function {
	entries := make([]*cir.Function, 0, len(old)+len(joined))
	lo, j := 0, 0 // the next entry of old and of joined to place
	for _, name := range moved {
		i, found := slices.BinarySearchFunc(old[lo:], name, func(fn *cir.Function, name string) int {
			return strings.Compare(fn.Name, name)
		})
		entries = append(entries, old[lo:lo+i]...)
		if j < len(joined) && joined[j].Name == name {
			entries = append(entries, joined[j])
			j++
		}
		if lo += i; found {
			lo++
		}
	}
	return append(entries, old[lo:]...)
}

// reverseClosure returns the names from which a name in roots is reachable
// over callers (roots included).
func reverseClosure(callers map[string][]string, roots []string) map[string]bool {
	seen := make(map[string]bool)
	work := slices.Clone(roots)
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if !seen[name] {
			seen[name] = true
			work = append(work, callers[name]...)
		}
	}
	return seen
}

func byName(a, b *cir.Function) int { return strings.Compare(a.Name, b.Name) }

// EntryFunctions returns the defined functions without explicit callers, in
// name order. These are the analysis roots of the paper's AnalyzeCode
// (Figure 6 line 1): module interface functions reached only through
// function-pointer registration, plus true roots.
func (g *Graph) EntryFunctions() []*cir.Function {
	return slices.Clone(g.entryList())
}

// NumEntries returns the number of entry functions.
func (g *Graph) NumEntries() int { return len(g.entryList()) }

// entryList returns the memoized entry list, which callers must not modify.
func (g *Graph) entryList() []*cir.Function {
	g.entriesOnce.Do(func() {
		for name, fn := range g.Mod.Funcs {
			if !fn.IsDecl() && len(g.Callers[name]) == 0 {
				g.entries = append(g.entries, fn)
			}
		}
		slices.SortFunc(g.entries, byName)
	})
	return g.entries
}

// IsEntry reports whether the named function has no explicit caller.
func (g *Graph) IsEntry(name string) bool {
	fn, ok := g.Mod.Funcs[name]
	return ok && !fn.IsDecl() && len(g.Callers[name]) == 0
}

// EntryKey returns the content-addressed cache key of entry function fn:
// a salt-free base — fn's name and the content fingerprint of fn and of
// every defined function statically reachable from it, in sorted name
// order — with the salt (the analysis-relevant configuration digest
// supplied by the caller) mixed in last. The key is unchanged exactly when
// nothing the entry's analysis can observe changed: editing any reachable
// function, adding or removing a reachable definition (definedness itself
// changes the reachable set), or renaming a function all produce a
// different key, while edits to unreachable code leave it alone. Calls to
// external declarations are opaque to the engine (no inlining,
// unconstrained result), so declaration bodies do not contribute — but a
// declaration *becoming* defined enters the reachable set and invalidates.
//
// The base is computed once per Graph and function, so keys under several
// salts cost one reachability walk, and a graph Derive made starts with
// its predecessor's bases of every function the edit cannot reach. The
// memo is locked, which also keeps the fingerprints it computes from
// racing each other.
func (g *Graph) EntryKey(fn *cir.Function, salt uint64) uint64 {
	g.basesMu.Lock()
	defer g.basesMu.Unlock()
	base, ok := g.bases[fn]
	if !ok {
		base = g.entryBase(fn)
		if g.bases == nil {
			g.bases = make(map[*cir.Function]uint64)
		}
		g.bases[fn] = base
	}
	return hmix.Mix2(salt, base)
}

// entryBase is EntryKey's salt-free part.
func (g *Graph) entryBase(fn *cir.Function) uint64 {
	reach := g.ReachableFrom(fn.Name)
	names := make([]string, 0, len(reach))
	for n := range reach {
		names = append(names, n)
	}
	slices.Sort(names)
	h := hmix.Str(fn.Name)
	for _, n := range names {
		if f, ok := g.Mod.Funcs[n]; ok {
			h = hmix.Mix3(h, hmix.Str(n), f.Fingerprint())
		}
	}
	return h
}

// ReachableFrom returns the set of defined functions reachable from root
// through direct calls (root included).
func (g *Graph) ReachableFrom(root string) map[string]bool {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		for _, c := range g.Callees[name] {
			if fn, ok := g.Mod.Funcs[c]; ok && !fn.IsDecl() {
				walk(c)
			}
		}
	}
	walk(root)
	return seen
}
