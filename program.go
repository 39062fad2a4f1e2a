package pata

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/callgraph"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
)

// Program is one loaded mini-C program: its sources, its lowered module
// with the frontend's per-file records (minicc.Lowered) and its call graph,
// built on first use or derived from the previous epoch's by Update, which
// memoizes the entry keys once the Program is indexed. It is the one
// pipeline object
// behind both the library (Load, then Analyze) and the patad daemon, whose
// epochs are Programs derived from each other by Update. Programs derived
// from a Program share the functions of every file the edits left alone.
//
// Once shared, a Program changes in one place only: the replay state
// (core.Carry) of its last cached Analyze — the candidates and counters
// the cache now holds for its entries — which the next cached Analyze of
// the Program, or of a Program Update derives from it, replays instead of
// decoding capsules. Each Analyze reads and replaces that state
// atomically, and never writes the candidates it holds, so concurrent
// Analyzes of one Program may share them.
type Program struct {
	name    string
	sources map[string]string
	low     *minicc.Lowered

	graphOnce sync.Once
	cg        *callgraph.Graph
	indexOnce sync.Once

	// carry is the replay state of p's last cached Analyze, or, before
	// one finishes, what Update carried over from the previous epoch.
	carry atomic.Pointer[core.Carry]
}

// Load lowers sources (file name → content) into a Program named name. It
// does no fingerprinting, which a cold analysis never needs.
func Load(name string, sources map[string]string) (*Program, error) {
	low, err := minicc.LowerProgram(name, sources)
	if err != nil {
		return nil, fmt.Errorf("pata: frontend: %w", err)
	}
	return &Program{name: name, sources: maps.Clone(sources), low: low}, nil
}

// graph returns p's call graph, building it once per Program unless
// Update derived it.
func (p *Program) graph() *callgraph.Graph {
	p.graphOnce.Do(func() {
		if p.cg == nil {
			p.cg = callgraph.Build(p.low.Mod)
		}
	})
	return p.cg
}

// Index memoizes every function fingerprint and the salt-free part of
// every entry key (callgraph.EntryKey), which Update diffs and a cached
// Analyze mixes its salt into; it does the work once per Program. The
// fingerprint memo is not safe for concurrent first computation, so a
// host that analyzes one Program with a cache from several goroutines
// (patad) indexes it before sharing it. Update returns indexed Programs.
func (p *Program) Index() {
	p.indexOnce.Do(func() {
		for _, fn := range p.low.Mod.Funcs {
			fn.Fingerprint()
		}
		cg := p.graph()
		for _, fn := range cg.EntryFunctions() {
			cg.EntryKey(fn, 0)
		}
	})
}

// Files returns the number of source files in p.
func (p *Program) Files() int { return len(p.sources) }

// Entries returns the number of entry functions in p.
func (p *Program) Entries() int { return p.graph().NumEntries() }

// Analyze runs both stages over p under the resolved engine configuration
// ec (Config.EngineConfig, plus a cache if wanted) on workers workers
// (<= 0 = GOMAXPROCS) and converts the result, rendering witness paths
// when witness is set. Cancelling ctx stops the run at the next bounded
// unit of work; unfinished entries are listed in Result.Incomplete.
// With ec.Cache set, hits on entries p carries replay without decoding,
// and the run's own replay state replaces p's (see Program).
func (p *Program) Analyze(ctx context.Context, ec core.Config, workers int, witness bool) *Result {
	res, carry := core.RunGraphCtx(ctx, p.graph(), ec, workers, p.carry.Load())
	if carry != nil {
		p.carry.Store(carry)
	}
	return ConvertResult(res, witness)
}

// Update applies an edit — set maps file name → new content, remove lists
// files to delete — and returns the next Program, indexed, with the
// functions whose fingerprint changed (added, removed or edited
// definitions) and the frontier: the entry functions whose salt-0
// callgraph.EntryKey changed. The frontier is exactly the set a cached
// Analyze of the next Program re-runs; every other entry replays. p is
// left as it was, and may be analyzed meanwhile. An edit that changes no
// file returns p itself; one that no longer lowers, or that removes every
// file, returns an error.
//
// An edit that only rewrites existing files re-lowers just those files
// (minicc.Lowered.Relower): the next Program shares every other function
// with p, and derives its call graph from p's (callgraph.Graph.Derive),
// so only the edited functions and the entries that reach them are
// compared and re-keyed. It also carries p's replay state over for every
// entry it did not re-key: those reach only functions the two Programs
// share. Anything Relower declines — an added or removed
// file, a changed declaration, a frontend error — lowers the edited
// sources from scratch, as Load does, builds the graph anew and carries
// nothing.
func (p *Program) Update(set map[string]string, remove []string) (*Program, []string, []string, error) {
	sources := maps.Clone(p.sources)
	edits := make(map[string]string) // changed files' new content
	changedFiles := make(map[string]bool)
	for name, content := range set {
		if prev, ok := sources[name]; !ok || prev != content {
			changedFiles[name] = true
			edits[name] = content
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
	// Index p first: the functions the next Program shares then carry
	// their fingerprints, and indexing it writes none of them.
	p.Index()
	var next *Program
	var delta *callgraph.Delta
	if len(edits) == len(changedFiles) {
		if low := p.low.Relower(edits); low != nil {
			cg, d := p.graph().Derive(low.Mod)
			next = &Program{name: p.name, sources: sources, low: low, cg: cg}
			next.carry.Store(p.carry.Load().Derive(low.Mod, d.Rekeyed))
			delta = &d
		}
	}
	if next == nil {
		var err error
		// Every function is fingerprinted anew: bodies see every file's
		// declarations, so an unchanged file can lower differently when
		// another file's declarations change.
		if next, err = Load(p.name, sources); err != nil {
			return nil, nil, nil, err
		}
	}
	next.Index()
	changed, frontier := p.diff(next, delta)
	return next, changed, frontier, nil
}

// diff compares p with next, both indexed: changed lists the defined
// functions whose fingerprint differs across the two, including added and
// removed definitions, and frontier the entries whose salt-0 key changed.
// Declarations are opaque to the engine and do not contribute to entry
// keys. Salt 0 stands in for the configuration salt the real cache keys
// carry: both sides share it, so it cancels out of the comparison.
//
// With d, the delta of next's graph derived from p's, only d's changed
// functions and re-keyed entries can differ, and only they are compared;
// with d nil, every function and entry is.
func (p *Program) diff(next *Program, d *callgraph.Delta) (changed, frontier []string) {
	var names []string
	var entries []*cir.Function
	if d != nil {
		names, entries = d.Changed, d.Rekeyed
	} else {
		for name := range p.low.Mod.Funcs {
			names = append(names, name)
		}
		for name := range next.low.Mod.Funcs {
			if _, ok := p.low.Mod.Funcs[name]; !ok {
				names = append(names, name)
			}
		}
		entries = next.cg.EntryFunctions()
	}
	defined := func(fn *cir.Function) bool { return fn != nil && !fn.IsDecl() }
	for _, name := range names {
		of, nf := p.low.Mod.Funcs[name], next.low.Mod.Funcs[name]
		if defined(of) != defined(nf) || defined(of) && of.Fingerprint() != nf.Fingerprint() {
			changed = append(changed, name)
		}
	}
	slices.Sort(changed)
	for _, fn := range entries {
		if old, ok := p.low.Mod.Funcs[fn.Name]; !ok || !p.cg.IsEntry(fn.Name) || p.cg.EntryKey(old, 0) != next.cg.EntryKey(fn, 0) {
			frontier = append(frontier, fn.Name)
		}
	}
	return changed, frontier
}
