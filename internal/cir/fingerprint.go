package cir

import (
	"strconv"

	"repro/internal/hmix"
)

// Fingerprint returns a deterministic content hash of the function: name,
// defining file, linkage, category, signature and parameters, and per
// block its name and per instruction its structure and source position,
// in block order. Two functions with the same fingerprint analyze
// identically in any module context that also agrees on the fingerprints
// of their callees, which is what the incremental cache's transitive entry
// keys (callgraph.EntryKey) build on.
//
// The hash is structural: an instruction contributes its opcode, its
// defined register's ID, name and type, each operand's identity (a
// register's ID and name, a global's name and element type, a constant's
// value, flags, text and type), and its own fields (an alloca's element
// type and variable name, a field name, an operator or predicate, a
// callee name, branch targets' block names). That covers everything the
// instruction's printed form shows, and types besides. A type hashes by
// its structure, a struct type by its name, never by pointer identity or
// interning, since fingerprints key the on-disk capsule pack across
// processes. Nothing is rendered to text, so the hash allocates nothing.
//
// The hash deliberately includes source positions: bug reports print
// file:line, so a pure line shift must invalidate the cached capsules even
// though the analysis semantics are unchanged. It also includes register
// names, so renaming a local re-analyzes the function — conservative, never
// stale (see TestFingerprintLocalRenameSensitivity).
//
// The result is memoized on the function. Concurrent first calls are
// safe: each computes the same value and stores it atomically.
func (fn *Function) Fingerprint() uint64 {
	if h := fn.fp.Load(); h != 0 {
		return h
	}
	h := hmix.Mix3(hmix.Str(fn.Name), hmix.Str(fn.File), boolBits(fn.Static))
	h = hmix.Add(h, hmix.Str(fn.Category))
	if fn.Typ != nil {
		h = hmix.Add(h, typeHash(fn.Typ))
	}
	for _, p := range fn.Params {
		h = hmix.Add(h, uint64(p.ID), hmix.Str(p.Name), typeHash(p.Typ))
	}
	file, fileHash := "", hmix.Str("")
	for _, blk := range fn.Blocks {
		h = hmix.Add(h, hmix.Str(blk.Name), uint64(len(blk.Instrs)))
		for _, in := range blk.Instrs {
			pos := in.Position()
			if pos.File != file {
				file, fileHash = pos.File, hmix.Str(pos.File)
			}
			h = instrHash(hmix.Add(h, fileHash, uint64(int64(pos.Line))), in)
		}
	}
	if h == 0 {
		h = 1 // keep 0 free as the "not computed" sentinel
	}
	fn.fp.Store(h)
	return h
}

// Opcodes for instrHash.
const (
	opAlloca = 1 + iota
	opMove
	opLoad
	opStore
	opFieldAddr
	opIndexAddr
	opBinOp
	opCmp
	opCall
	opBr
	opCondBr
	opRet
)

// instrHash mixes in's structure into h.
func instrHash(h uint64, in Instr) uint64 {
	if d := in.Dest(); d != nil {
		h = hmix.Add(h, uint64(d.ID), hmix.Str(d.Name), typeHash(d.Typ))
	}
	switch t := in.(type) {
	case *Alloca:
		return hmix.Add(h, opAlloca, typeHash(t.Elem), hmix.Str(t.VarName))
	case *Move:
		return valueHash(hmix.Add(h, opMove), t.Src)
	case *Load:
		return valueHash(hmix.Add(h, opLoad), t.Addr)
	case *Store:
		return valueHash(valueHash(hmix.Add(h, opStore), t.Addr), t.Val)
	case *FieldAddr:
		return hmix.Add(valueHash(hmix.Add(h, opFieldAddr), t.Base), hmix.Str(t.Field))
	case *IndexAddr:
		return valueHash(valueHash(hmix.Add(h, opIndexAddr), t.Base), t.Index)
	case *BinOp:
		return valueHash(valueHash(hmix.Add(h, opBinOp, hmix.Str(string(t.Op))), t.X), t.Y)
	case *Cmp:
		return valueHash(valueHash(hmix.Add(h, opCmp, hmix.Str(string(t.Pred))), t.X), t.Y)
	case *Call:
		h = hmix.Add(h, opCall, hmix.Str(t.Callee), uint64(len(t.Args)))
		for _, a := range t.Args {
			h = valueHash(h, a)
		}
		return h
	case *Br:
		return hmix.Add(h, opBr, hmix.Str(t.Target.Name))
	case *CondBr:
		return hmix.Add(valueHash(hmix.Add(h, opCondBr), t.Cond), hmix.Str(t.True.Name), hmix.Str(t.False.Name))
	case *Ret:
		return valueHash(hmix.Add(h, opRet), t.Val)
	}
	panic("cir: fingerprint of an unknown instruction")
}

// valueHash mixes operand v's identity into h; a nil v mixes in a tag of
// its own.
func valueHash(h uint64, v Value) uint64 {
	switch t := v.(type) {
	case nil:
		return hmix.Add(h, 0)
	case *Register:
		return hmix.Add(h, 1, uint64(t.ID), hmix.Str(t.Name))
	case *Global:
		return hmix.Add(h, 2, hmix.Str(t.Name), typeHash(t.Elem))
	case *Const:
		flags := boolBits(t.IsNull) | boolBits(t.IsStr)<<1
		return hmix.Add(h, 3, uint64(t.Val), flags, hmix.Str(t.Str), typeHash(t.Typ))
	}
	panic("cir: fingerprint of an unknown value")
}

// typeHash hashes t's structure: a struct type by its name (struct types
// are nominal), every other type by its kind and parts.
func typeHash(t Type) uint64 {
	switch t := t.(type) {
	case nil:
		return 0
	case *IntType:
		return hmix.Mix2(1, uint64(t.Width))
	case *VoidType:
		return 2
	case *PtrType:
		return hmix.Mix2(3, typeHash(t.Elem))
	case *StructType:
		return hmix.Mix2(4, hmix.Str(t.Name))
	case *ArrayType:
		return hmix.Mix3(5, uint64(t.Len), typeHash(t.Elem))
	case *FuncType:
		h := hmix.Mix4(6, typeHash(t.Result), boolBits(t.Variadic), uint64(len(t.Params)))
		for _, p := range t.Params {
			h = hmix.Mix2(h, typeHash(p))
		}
		return h
	}
	panic("cir: fingerprint of an unknown type")
}

// AdoptFingerprint copies old's memoized fingerprint onto fn, skipping the
// recompute. It is only sound when fn is a re-lowering of the exact same
// source text as old — the caller (patad's invalidation path, which tracks
// which FILES changed) vouches for that; this function only sanity-checks
// the identity facts it can see. It returns false — and leaves fn to be
// fingerprinted from scratch — when old carries no memo yet or the
// name/file identity does not line up.
func (fn *Function) AdoptFingerprint(old *Function) bool {
	if old == nil || old.fp.Load() == 0 || old.Name != fn.Name || old.File != fn.File ||
		old.Static != fn.Static || len(old.Blocks) != len(fn.Blocks) {
		return false
	}
	fn.fp.Store(old.fp.Load())
	return true
}

// HasFingerprint reports whether fn's fingerprint is memoized.
func (fn *Function) HasFingerprint() bool { return fn.fp.Load() != 0 }

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// SiteToken returns a content-stable, module-unique token for an
// instruction: the enclosing function's name plus the function-local
// instruction ID. Unlike the module-wide GID it does not shift when other
// functions change, so it is safe in data the incremental cache persists —
// in particular the alias-graph index labels that surface in a report's
// alias-set access paths.
func SiteToken(in Instr) string {
	fn := ""
	if blk := in.Block(); blk != nil && blk.Fn != nil {
		fn = blk.Fn.Name
	}
	return fn + "#" + strconv.Itoa(in.LID())
}
