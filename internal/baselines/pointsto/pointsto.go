// Package pointsto implements an Andersen-style inclusion-based,
// flow-insensitive, field-sensitive points-to analysis over CIR, and the
// SVF-Null detector the paper builds on top of it (§6): two pointers alias
// iff their points-to sets intersect. It deliberately reproduces the D1
// weakness the paper identifies: pointer parameters of functions without
// explicit callers have EMPTY points-to sets (no allocation flows into
// them), so their aliases are invisible and bugs like Figure 1's are missed.
package pointsto

import (
	"fmt"
	"sort"

	"repro/internal/cir"
	"repro/internal/typestate"
)

// Obj is an abstract object: an allocation site, a global's storage, or a
// field/element sub-object.
type Obj struct {
	// Base identifies the allocation: "alloca:<gid>", "heap:<gid>",
	// "global:<name>".
	Base string
	// Field is the access path within the base ("" for the whole object).
	Field string
}

// Analysis holds the points-to solution.
type Analysis struct {
	Mod *cir.Module
	// Pts maps a value to its points-to set.
	pts map[cir.Value]map[Obj]bool
	// mem maps an object to what is stored in it.
	mem map[Obj]map[Obj]bool
	// Iterations is the number of fixpoint rounds taken.
	Iterations int
}

// Run computes the Andersen fixpoint for mod.
func Run(mod *cir.Module) *Analysis {
	a := &Analysis{
		Mod: mod,
		pts: make(map[cir.Value]map[Obj]bool),
		mem: make(map[Obj]map[Obj]bool),
	}
	a.solve()
	return a
}

func (a *Analysis) addPts(v cir.Value, o Obj) bool {
	s, ok := a.pts[v]
	if !ok {
		s = make(map[Obj]bool)
		a.pts[v] = s
	}
	if s[o] {
		return false
	}
	s[o] = true
	return true
}

func (a *Analysis) addMem(target Obj, o Obj) bool {
	s, ok := a.mem[target]
	if !ok {
		s = make(map[Obj]bool)
		a.mem[target] = s
	}
	if s[o] {
		return false
	}
	s[o] = true
	return true
}

// Pts returns the points-to set of v, deterministically ordered.
func (a *Analysis) Pts(v cir.Value) []Obj {
	s := a.pts[v]
	out := make([]Obj, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return a.Base < b.Base || a.Base == b.Base && a.Field < b.Field
	})
	return out
}

// Alias reports whether x and y may alias: their points-to sets intersect.
// Empty sets never intersect — the D1 weakness.
func (a *Analysis) Alias(x, y cir.Value) bool {
	sx, sy := a.pts[x], a.pts[y]
	if len(sx) > len(sy) {
		sx, sy = sy, sx
	}
	for o := range sx {
		if sy[o] {
			return true
		}
	}
	return false
}

// solve iterates all constraints to a fixpoint. The rule set follows the
// classic inclusion constraints, extended with direct-call parameter and
// return bindings (context-insensitive).
func (a *Analysis) solve() {
	intr := typestate.DefaultIntrinsics()
	// Returned values per function, for call bindings.
	rets := make(map[string][]cir.Value)
	for _, fn := range a.Mod.SortedFuncs() {
		fn.Instrs(func(in cir.Instr) {
			if r, ok := in.(*cir.Ret); ok && r.Val != nil {
				rets[fn.Name] = append(rets[fn.Name], r.Val)
			}
		})
	}
	for changed := true; changed; {
		changed = false
		a.Iterations++
		for _, g := range sortedGlobals(a.Mod) {
			if a.addPts(g, Obj{Base: "global:" + g.Name}) {
				changed = true
			}
		}
		for _, fn := range a.Mod.SortedFuncs() {
			fn.Instrs(func(in cir.Instr) {
				switch t := in.(type) {
				case *cir.Alloca:
					if a.addPts(t.Dst, Obj{Base: fmt.Sprintf("alloca:%d", t.GID())}) {
						changed = true
					}
				case *cir.Move:
					for o := range a.pts[t.Src] {
						if a.addPts(t.Dst, o) {
							changed = true
						}
					}
				case *cir.FieldAddr:
					for o := range a.pts[t.Base] {
						fo := Obj{Base: o.Base, Field: joinField(o.Field, t.Field)}
						if a.addPts(t.Dst, fo) {
							changed = true
						}
					}
				case *cir.IndexAddr:
					// Array-insensitive: the element object collapses onto
					// a single "[*]" sub-object.
					for o := range a.pts[t.Base] {
						fo := Obj{Base: o.Base, Field: joinField(o.Field, "[*]")}
						if a.addPts(t.Dst, fo) {
							changed = true
						}
					}
				case *cir.Load:
					for o := range a.pts[t.Addr] {
						for m := range a.mem[o] {
							if a.addPts(t.Dst, m) {
								changed = true
							}
						}
					}
				case *cir.Store:
					for o := range a.pts[t.Addr] {
						for m := range a.pts[t.Val] {
							if a.addMem(o, m) {
								changed = true
							}
						}
					}
				case *cir.Call:
					kind := intr.Classify(t.Callee)
					if kind == typestate.IntrAlloc || kind == typestate.IntrZeroAlloc {
						if t.Dst != nil && a.addPts(t.Dst, Obj{Base: fmt.Sprintf("heap:%d", t.GID())}) {
							changed = true
						}
						return
					}
					callee, ok := a.Mod.Funcs[t.Callee]
					if !ok || callee.IsDecl() {
						return
					}
					for i, p := range callee.Params {
						if i >= len(t.Args) {
							break
						}
						for o := range a.pts[t.Args[i]] {
							if a.addPts(p, o) {
								changed = true
							}
						}
					}
					if t.Dst != nil {
						for _, rv := range rets[callee.Name] {
							for o := range a.pts[rv] {
								if a.addPts(t.Dst, o) {
									changed = true
								}
							}
						}
					}
				}
			})
		}
	}
}

func joinField(a, b string) string {
	if a == "" {
		return b
	}
	return a + "." + b
}

func sortedGlobals(mod *cir.Module) []*cir.Global {
	names := make([]string, 0, len(mod.Globals))
	for n := range mod.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*cir.Global, 0, len(names))
	for _, n := range names {
		out = append(out, mod.Globals[n])
	}
	return out
}

// Finding is one SVF-Null report.
type Finding struct {
	Instr cir.Instr
	Fn    *cir.Function
}

// SVFNull is the paper's §6 construction: null-pointer-dereference detection
// where alias relationships come from the points-to solution. For every
// null-checked pointer value, any dereference of a may-alias value later in
// the same function (block reverse-post-order) is flagged — flow-sensitive
// ordering, but no path sensitivity and points-to aliasing only.
func SVFNull(a *Analysis) []Finding {
	var out []Finding
	for _, fn := range a.Mod.SortedFuncs() {
		if fn.IsDecl() {
			continue
		}
		// Collect null-checked values in instruction order.
		type check struct {
			val cir.Value
			gid int
		}
		var checks []check
		fn.Instrs(func(in cir.Instr) {
			cmp, ok := in.(*cir.Cmp)
			if !ok {
				return
			}
			var val cir.Value
			switch {
			case cir.IsNullConst(cmp.Y):
				val = cmp.X
			case cir.IsNullConst(cmp.X):
				val = cmp.Y
			default:
				return
			}
			if cir.IsPointer(val.Type()) {
				checks = append(checks, check{val: val, gid: in.GID()})
			}
		})
		if len(checks) == 0 {
			continue
		}
		fn.Instrs(func(in cir.Instr) {
			base := derefBase(in)
			if base == nil {
				return
			}
			for _, c := range checks {
				if in.GID() <= c.gid {
					continue
				}
				// Alias via points-to intersection; identical values alias
				// trivially.
				if base == c.val || a.Alias(base, c.val) {
					out = append(out, Finding{Instr: in, Fn: fn})
					return
				}
			}
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Instr.GID() < out[j].Instr.GID() })
	return out
}

func derefBase(in cir.Instr) cir.Value {
	switch t := in.(type) {
	case *cir.Load:
		if !stackRooted(t.Addr) {
			return t.Addr
		}
	case *cir.Store:
		if !stackRooted(t.Addr) {
			return t.Addr
		}
	case *cir.FieldAddr:
		if !stackRooted(t.Base) {
			return t.Base
		}
	case *cir.IndexAddr:
		if !stackRooted(t.Base) {
			return t.Base
		}
	}
	return nil
}

func stackRooted(v cir.Value) bool {
	switch t := v.(type) {
	case *cir.Global:
		return true
	case *cir.Register:
		if t.Def == nil {
			return false
		}
		switch d := t.Def.(type) {
		case *cir.Alloca:
			return true
		case *cir.FieldAddr:
			return stackRooted(d.Base)
		case *cir.IndexAddr:
			return stackRooted(d.Base)
		}
	}
	return false
}
