package cir

import (
	"errors"
	"fmt"
)

// Verify checks structural well-formedness of the module:
//
//   - every block ends in exactly one terminator;
//   - every instruction records its block and its index there;
//   - every register is defined exactly once;
//   - instruction destinations point back at their defining instruction;
//   - branch targets belong to the same function;
//   - operands with pointer-sensitive roles have pointer types.
//
// It returns all violations joined into one error, or nil.
func Verify(m *Module) error {
	var errs []error
	for _, fn := range m.SortedFuncs() {
		errs = append(errs, verifyFunction(fn)...)
	}
	return errors.Join(errs...)
}

// VerifyFunction checks one function as Verify does. It reads only fn, so
// distinct functions verify concurrently; joining their errors in
// SortedFuncs order gives Verify's error.
func VerifyFunction(fn *Function) error { return errors.Join(verifyFunction(fn)...) }

// regSet is a set of registers. A register fn made is kept in the slot of
// its dense ID; any other (hand-built, another function's, or one whose
// slot another register holds) in a map.
type regSet struct {
	fn      *Function
	local   []*Register
	foreign map[*Register]bool
}

func (s *regSet) slot(r *Register) bool {
	return r.Fn == s.fn && r.ID > 0 && r.ID < len(s.local)
}

func (s *regSet) has(r *Register) bool {
	return s.slot(r) && s.local[r.ID] == r || s.foreign[r]
}

func (s *regSet) add(r *Register) {
	if s.slot(r) && (s.local[r.ID] == nil || s.local[r.ID] == r) {
		s.local[r.ID] = r
		return
	}
	if s.foreign == nil {
		s.foreign = make(map[*Register]bool)
	}
	s.foreign[r] = true
}

func verifyFunction(fn *Function) []error {
	if fn.IsDecl() {
		return nil
	}
	var errs []error
	defs := regSet{fn: fn, local: make([]*Register, fn.nextReg+1)}
	for _, p := range fn.Params {
		defs.add(p)
	}
	for _, blk := range fn.Blocks {
		if len(blk.Instrs) == 0 {
			errs = append(errs, fmt.Errorf("%s/%s: empty block", fn.Name, blk.Name))
			continue
		}
		for idx, in := range blk.Instrs {
			isLast := idx == len(blk.Instrs)-1
			if IsTerminator(in) != isLast {
				errs = append(errs, fmt.Errorf("%s/%s: instruction %d (%s): terminator placement", fn.Name, blk.Name, idx, in))
			}
			if in.Block() != blk || in.BlockIndex() != idx {
				errs = append(errs, fmt.Errorf("%s/%s: instruction %d (%s): not appended at its place", fn.Name, blk.Name, idx, in))
			}
			if d := in.Dest(); d != nil {
				if defs.has(d) {
					errs = append(errs, fmt.Errorf("%s: register %s defined more than once", fn.Name, d))
				}
				defs.add(d)
				if d.Def != in {
					errs = append(errs, fmt.Errorf("%s: register %s Def link broken at %s", fn.Name, d, in))
				}
			}
			switch t := in.(type) {
			case *Load:
				if !IsPointer(t.Addr.Type()) {
					errs = append(errs, fmt.Errorf("%s: load from non-pointer %s", fn.Name, t.Addr))
				}
			case *Store:
				if !IsPointer(t.Addr.Type()) {
					errs = append(errs, fmt.Errorf("%s: store to non-pointer %s", fn.Name, t.Addr))
				}
			case *FieldAddr:
				if !IsPointer(t.Base.Type()) {
					errs = append(errs, fmt.Errorf("%s: fieldaddr on non-pointer %s", fn.Name, t.Base))
				}
			case *IndexAddr:
				if !IsPointer(t.Base.Type()) {
					errs = append(errs, fmt.Errorf("%s: indexaddr on non-pointer %s", fn.Name, t.Base))
				}
			case *Br:
				if t.Target.Fn != fn {
					errs = append(errs, fmt.Errorf("%s: branch to foreign block %s", fn.Name, t.Target.Name))
				}
			case *CondBr:
				if t.True.Fn != fn || t.False.Fn != fn {
					errs = append(errs, fmt.Errorf("%s: condbr to foreign block", fn.Name))
				}
			}
		}
	}
	// Check that every used register has a definition.
	var buf [4]Value
	ops := buf[:0]
	for _, blk := range fn.Blocks {
		for _, in := range blk.Instrs {
			ops = appendOperands(ops[:0], in)
			for _, op := range ops {
				r, ok := op.(*Register)
				if !ok {
					continue
				}
				if !defs.has(r) {
					errs = append(errs, fmt.Errorf("%s: use of undefined register %s in %s", fn.Name, r, in))
				}
			}
		}
	}
	return errs
}

// appendOperands appends to dst the values that in uses, in operand order.
func appendOperands(dst []Value, in Instr) []Value {
	switch t := in.(type) {
	case *Move:
		return append(dst, t.Src)
	case *Load:
		return append(dst, t.Addr)
	case *Store:
		return append(dst, t.Addr, t.Val)
	case *FieldAddr:
		return append(dst, t.Base)
	case *IndexAddr:
		return append(dst, t.Base, t.Index)
	case *BinOp:
		return append(dst, t.X, t.Y)
	case *Cmp:
		return append(dst, t.X, t.Y)
	case *Call:
		return append(dst, t.Args...)
	case *CondBr:
		return append(dst, t.Cond)
	case *Ret:
		if t.Val != nil {
			return append(dst, t.Val)
		}
	}
	return dst
}
