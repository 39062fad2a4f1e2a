// Package callgraph builds the function-information database of the paper's
// P1 phase: direct call edges across all lowered source files, and the set
// of entry functions — functions with no explicit caller in the analyzed
// code, such as driver interface functions installed via ops structs
// (Figure 1). Entry functions are where the path-sensitive analysis starts.
package callgraph

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/cir"
	"repro/internal/hmix"
)

// Graph is the module call graph.
type Graph struct {
	Mod *cir.Module
	// Callees maps a function to the set of functions it calls directly.
	Callees map[string][]string
	// Callers maps a function to its direct callers.
	Callers map[string][]string
	// NumCallSites counts all direct call instructions.
	NumCallSites int

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
		var callees []string
		fn.Instrs(func(in cir.Instr) {
			if call, ok := in.(*cir.Call); ok {
				callees = append(callees, call.Callee)
			}
		})
		if len(callees) == 0 {
			continue
		}
		g.NumCallSites += len(callees)
		sort.Strings(callees)
		g.Callees[name] = slices.Compact(callees)
	}
	for name, callees := range g.Callees {
		for _, c := range callees {
			g.Callers[c] = append(g.Callers[c], name)
		}
	}
	for _, callers := range g.Callers {
		sort.Strings(callers)
	}
	return g
}

// EntryFunctions returns the defined functions without explicit callers, in
// name order. These are the analysis roots of the paper's AnalyzeCode
// (Figure 6 line 1): module interface functions reached only through
// function-pointer registration, plus true roots.
func (g *Graph) EntryFunctions() []*cir.Function {
	g.entriesOnce.Do(func() {
		for name, fn := range g.Mod.Funcs {
			if !fn.IsDecl() && len(g.Callers[name]) == 0 {
				g.entries = append(g.entries, fn)
			}
		}
		slices.SortFunc(g.entries, func(a, b *cir.Function) int { return strings.Compare(a.Name, b.Name) })
	})
	return append([]*cir.Function(nil), g.entries...)
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
// salts cost one reachability walk. The memo is locked, which also keeps
// the fingerprints it computes from racing each other.
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
	sort.Strings(names)
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
