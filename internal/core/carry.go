package core

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/callgraph"
	"repro/internal/cir"
	"repro/internal/typestate"
)

// Carry is the per-entry replay state of a cached run, taken after Stage 2
// and its capsule saves: for each entry function, its cache key and, when
// the cache holds its capsule, the replay a decode of that capsule builds —
// counters and candidates, stored verdicts included. A host that analyzes
// successive epochs of one program (pata.Program) hands a run the Carry of
// the previous one, so the run neither re-keys a carried entry nor decodes
// a carried hit.
//
// A Carry is immutable, and so are the candidates it holds: several runs
// may replay them at once, and Stage 2 records its verdicts beside them
// (see validateGroup). Entries are matched by function object, so a
// carried entry only ever serves a module that shares it, and the state is
// tagged with the run's analysisSalt, so a run under another configuration
// ignores it. Carrying is exact only while every function an entry reaches
// is shared too: a host must drop the entries an edit re-keys (see
// Derive).
type Carry struct {
	salt    uint64
	entries []*cir.Function // the run's entry functions, in name order
	keys    []string        // their cache keys under salt
	slots   []entrySlot     // their replays: carried where cached is set
	dropped map[*cir.Function]bool
}

// Derive returns the state c carries over to mod, a module an edit made
// from the one c was taken over, given the entries the edit re-keyed
// (callgraph.Delta.Rekeyed): that of every entry function mod shares, save
// the re-keyed ones. A nil c carries nothing.
func (c *Carry) Derive(mod *cir.Module, rekeyed []*cir.Function) *Carry {
	if c == nil {
		return nil
	}
	next := *c
	next.dropped = maps.Clone(c.dropped)
	if next.dropped == nil {
		next.dropped = make(map[*cir.Function]bool, len(rekeyed))
	}
	for _, fn := range c.entries {
		if mod.Funcs[fn.Name] != fn {
			next.dropped[fn] = true
		}
	}
	for _, fn := range rekeyed {
		next.dropped[fn] = true
	}
	return &next
}

// match calls f(i, j) for each entries[i] that c carries, as c.entries[j].
// Both lists are in name order.
func (c *Carry) match(entries []*cir.Function, f func(i, j int)) {
	j := 0
	for i, fn := range entries {
		for j < len(c.entries) && c.entries[j].Name < fn.Name {
			j++
		}
		if j < len(c.entries) && c.entries[j] == fn && !c.dropped[fn] {
			f(i, j)
		}
	}
}

// Check checks every entry of cg that c carries against what a run under
// cfg would find: its key must be the one cg gives it, and a carried hit's
// replay must be what decoding the capsule cfg.Cache holds under that key
// builds. Counters, strings and verdicts compare by value; instructions,
// registers, globals and checkers by identity. It returns the number of
// carried hits, or the first difference. This is the invariant a run
// relies on when it replays a carried entry; tests check it.
func (c *Carry) Check(cg *callgraph.Graph, cfg Config) (int, error) {
	if c == nil {
		return 0, nil
	}
	cfg = cfg.withDefaults()
	if cfg.Cache == nil {
		return 0, fmt.Errorf("no cache to check carried entries against")
	}
	salt := cfg.analysisSalt(cg.Mod)
	if c.salt != salt {
		return 0, fmt.Errorf("carried state has salt %x, the configuration %x", c.salt, salt)
	}
	byName := checkersByName(cfg)
	hits := 0
	var err error
	entries := cg.EntryFunctions()
	c.match(entries, func(i, j int) {
		fn := entries[i]
		if err != nil {
			return
		}
		key := entryKeyString(cg.EntryKey(fn, salt))
		if c.keys[j] != key {
			err = fmt.Errorf("%s: carried key %s, the entry's key %s", fn.Name, c.keys[j], key)
			return
		}
		if !c.slots[j].cached {
			return
		}
		hits++
		data, ok := cfg.Cache.Load(key)
		if !ok {
			err = fmt.Errorf("%s: carried entry has no capsule in the cache", fn.Name)
			return
		}
		want, ok := decodeReplay(data, cg.Mod, byName)
		if !ok {
			err = fmt.Errorf("%s: capsule of a carried entry does not decode", fn.Name)
			return
		}
		if diff := replayDiff(c.slots[j].rep, want); diff != "" {
			err = fmt.Errorf("%s: carried entry differs from its capsule's decode: %s", fn.Name, diff)
		}
	})
	return hits, err
}

// replayDiff describes the first difference between two replays, or
// returns "".
func replayDiff(got, want replay) string {
	if got.stats != want.stats {
		return fmt.Sprintf("counters %+v, decoded %+v", got.stats, want.stats)
	}
	if len(got.possible) != len(want.possible) {
		return fmt.Sprintf("%d candidates, decoded %d", len(got.possible), len(want.possible))
	}
	for i, g := range got.possible {
		if d := candidateDiff(g, want.possible[i]); d != "" {
			return fmt.Sprintf("candidate %d: %s", i, d)
		}
	}
	return ""
}

func candidateDiff(g, w *PossibleBug) string {
	switch {
	case g.Checker != w.Checker || g.Type != w.Type:
		return "checker"
	case g.BugInstr != w.BugInstr || g.OriginGID != w.OriginGID:
		return "bug or origin instruction"
	case !slices.Equal(g.Path, w.Path):
		return "path"
	case !slices.EqualFunc(g.AltPaths, w.AltPaths, slices.Equal[[]PathStep]):
		return "alternate paths"
	case !sameExtra(g.Extra, w.Extra):
		return "extra constraint"
	case g.EntryFn != w.EntryFn || g.InFn != w.InFn || g.Category != w.Category:
		return "names"
	case !slices.Equal(g.AliasSet, w.AliasSet):
		return "alias set"
	case (g.verdict == nil) != (w.verdict == nil):
		return fmt.Sprintf("verdict present %v, decoded %v", g.verdict != nil, w.verdict != nil)
	case g.verdict != nil && (g.verdict.Feasible != w.verdict.Feasible ||
		g.verdict.Constraints != w.verdict.Constraints ||
		g.verdict.ConstraintsUnaware != w.verdict.ConstraintsUnaware ||
		!slices.Equal(g.verdict.Trigger, w.verdict.Trigger)):
		return "verdict"
	case g.merged || w.merged:
		return "a merged copy"
	}
	return ""
}

// sameExtra compares extra constraints; a constant compares by value,
// since each decode builds its own.
func sameExtra(a, b *typestate.ExtraConstraint) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Pred != b.Pred || a.Bound != b.Bound {
		return false
	}
	ac, aok := a.Val.(*cir.Const)
	bc, bok := b.Val.(*cir.Const)
	if aok || bok {
		return aok && bok && *ac == *bc
	}
	return a.Val == b.Val
}
