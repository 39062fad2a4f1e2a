package pata

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"repro/internal/callgraph"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
)

// Program is one loaded mini-C program: its sources and lowered module
// and, once indexed, its call graph and salt-0 entry keys. It is the one
// pipeline object behind both the library (Load, then Analyze) and the
// patad daemon, whose epochs are Programs derived from each other by
// Update. A Program never changes once shared.
type Program struct {
	name    string
	sources map[string]string
	mod     *cir.Module

	indexOnce sync.Once
	cg        *callgraph.Graph
	keys      map[string]uint64 // salt-0 callgraph.EntryKey by entry name
}

// Load lowers sources (file name → content) into a Program named name. It
// does no fingerprinting, which a cold analysis never needs.
func Load(name string, sources map[string]string) (*Program, error) {
	mod, err := minicc.LowerAll(name, sources)
	if err != nil {
		return nil, fmt.Errorf("pata: frontend: %w", err)
	}
	return &Program{name: name, sources: maps.Clone(sources), mod: mod}, nil
}

// Index builds p's call graph, memoizes every function fingerprint and
// computes the salt-0 entry keys Update diffs against; it does the work
// once per Program. The fingerprint memo is not safe for concurrent first
// computation, so a host that analyzes one Program with a cache from
// several goroutines (patad) indexes it before sharing it. Update returns
// indexed Programs.
func (p *Program) Index() {
	p.indexOnce.Do(func() {
		for _, fn := range p.mod.SortedFuncs() {
			fn.Fingerprint()
		}
		p.cg = callgraph.Build(p.mod)
		entries := p.cg.EntryFunctions()
		p.keys = make(map[string]uint64, len(entries))
		for _, fn := range entries {
			p.keys[fn.Name] = p.cg.EntryKey(fn, 0)
		}
	})
}

// Files returns the number of source files in p.
func (p *Program) Files() int { return len(p.sources) }

// Entries returns the number of entry functions in p, indexing it.
func (p *Program) Entries() int {
	p.Index()
	return len(p.keys)
}

// Analyze runs both stages over p under the resolved engine configuration
// ec (Config.EngineConfig, plus a cache if wanted) on workers workers
// (<= 0 = GOMAXPROCS) and converts the result, rendering witness paths
// when witness is set. Cancelling ctx stops the run at the next bounded
// unit of work; unfinished entries are listed in Result.Incomplete.
func (p *Program) Analyze(ctx context.Context, ec core.Config, workers int, witness bool) *Result {
	return ConvertResult(core.RunParallelCtx(ctx, p.mod, ec, workers), witness)
}

// Update applies an edit — set maps file name → new content, remove lists
// files to delete — and returns the next Program, indexed, with the
// functions whose fingerprint changed (added, removed or edited
// definitions) and the frontier: the entry functions whose salt-0
// callgraph.EntryKey changed. The frontier is exactly the set a cached
// Analyze of the next Program re-runs; every other entry replays. p is
// left as it was. An edit that changes no file returns p itself; one that
// no longer lowers, or that removes every file, returns an error.
func (p *Program) Update(set map[string]string, remove []string) (*Program, []string, []string, error) {
	sources := maps.Clone(p.sources)
	changedFiles := make(map[string]bool)
	for name, content := range set {
		if prev, ok := sources[name]; !ok || prev != content {
			changedFiles[name] = true
		}
		sources[name] = content
	}
	for _, name := range remove {
		if _, ok := sources[name]; ok {
			changedFiles[name] = true
		}
		delete(sources, name)
	}
	if len(changedFiles) == 0 {
		return p, nil, nil, nil
	}
	if len(sources) == 0 {
		return nil, nil, nil, errors.New("pata: update would remove every source file")
	}
	next, err := Load(p.name, sources)
	if err != nil {
		return nil, nil, nil, err
	}

	// Functions of unchanged files adopt p's fingerprints: identical source
	// text lowers to an identical rendering, so the hash is the same by
	// construction (TestAdoptedFingerprintsMatchRecompute pins it).
	p.Index()
	for _, fn := range next.mod.SortedFuncs() {
		if !changedFiles[fn.File] {
			fn.AdoptFingerprint(p.mod.Funcs[fn.Name])
		}
	}
	next.Index()

	// Changed = defined functions whose fingerprint differs across the two
	// Programs, including added and removed definitions. Declarations are
	// opaque to the engine and do not contribute to entry keys.
	var changed []string
	for name, old := range p.mod.Funcs {
		if nf, ok := next.mod.Funcs[name]; !old.IsDecl() && (!ok || nf.IsDecl() || nf.Fingerprint() != old.Fingerprint()) {
			changed = append(changed, name)
		}
	}
	for name, nf := range next.mod.Funcs {
		if of, ok := p.mod.Funcs[name]; !nf.IsDecl() && (!ok || of.IsDecl()) {
			changed = append(changed, name)
		}
	}
	sort.Strings(changed)

	// Frontier = entries whose key changed. Salt 0 stands in for the
	// configuration salt the real cache keys carry: both sides share it,
	// so it cancels out of the comparison.
	var frontier []string
	for name, key := range next.keys {
		if old, ok := p.keys[name]; !ok || old != key {
			frontier = append(frontier, name)
		}
	}
	sort.Strings(frontier)
	return next, changed, frontier, nil
}
