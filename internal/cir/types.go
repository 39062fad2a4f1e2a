// Package cir defines a small C-like intermediate representation (CIR)
// modelled on the LLVM subset that PATA consumes: register MOVEs, memory
// LOAD/STORE, field/index address computation (GEP), direct calls, compares,
// arithmetic and branches. Programs are lowered into CIR by internal/minicc
// and analyzed by the alias, typestate and path-validation engines.
package cir

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Type is the interface implemented by all CIR types.
type Type interface {
	String() string
	// Equal reports structural type equality.
	Equal(Type) bool

	pointer() *pointerCache
}

// pointerCache holds the one pointer type to the type that embeds it (see
// PointerTo).
type pointerCache struct{ ptr atomic.Pointer[PtrType] }

func (c *pointerCache) pointer() *pointerCache { return c }

// IntType is an integer type of a given bit width. Width 1 is used for
// booleans produced by comparisons.
type IntType struct {
	pointerCache
	Width int
}

func (t *IntType) String() string { return fmt.Sprintf("i%d", t.Width) }

func (t *IntType) Equal(o Type) bool {
	u, ok := o.(*IntType)
	return ok && u.Width == t.Width
}

// VoidType is the type of functions that return nothing.
type VoidType struct{ pointerCache }

func (t *VoidType) String() string    { return "void" }
func (t *VoidType) Equal(o Type) bool { _, ok := o.(*VoidType); return ok }

// PtrType is a pointer to Elem.
type PtrType struct {
	pointerCache
	Elem Type
}

func (t *PtrType) String() string { return t.Elem.String() + "*" }

func (t *PtrType) Equal(o Type) bool {
	u, ok := o.(*PtrType)
	return ok && u.Elem.Equal(t.Elem)
}

// Field is a named member of a struct type.
type Field struct {
	Name string
	Type Type
}

// StructType is a nominal struct type. Two struct types are equal iff their
// names are equal (nominal typing, as in C).
type StructType struct {
	pointerCache
	Name   string
	Fields []Field
}

func (t *StructType) String() string { return "struct " + t.Name }

func (t *StructType) Equal(o Type) bool {
	u, ok := o.(*StructType)
	return ok && u.Name == t.Name
}

// FieldIndex returns the index of the named field, or -1.
func (t *StructType) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// FieldType returns the type of the named field, or nil.
func (t *StructType) FieldType(name string) Type {
	if i := t.FieldIndex(name); i >= 0 {
		return t.Fields[i].Type
	}
	return nil
}

// ArrayType is a fixed-length array of Elem.
type ArrayType struct {
	pointerCache
	Elem Type
	Len  int
}

func (t *ArrayType) String() string { return fmt.Sprintf("[%d x %s]", t.Len, t.Elem) }

func (t *ArrayType) Equal(o Type) bool {
	u, ok := o.(*ArrayType)
	return ok && u.Len == t.Len && u.Elem.Equal(t.Elem)
}

// FuncType describes a function signature.
type FuncType struct {
	pointerCache
	Params   []Type
	Result   Type
	Variadic bool
}

func (t *FuncType) String() string {
	var b strings.Builder
	b.WriteString(t.Result.String())
	b.WriteString(" (")
	for i, p := range t.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	if t.Variadic {
		if len(t.Params) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("...")
	}
	b.WriteString(")")
	return b.String()
}

func (t *FuncType) Equal(o Type) bool {
	u, ok := o.(*FuncType)
	if !ok || len(u.Params) != len(t.Params) || u.Variadic != t.Variadic {
		return false
	}
	if !u.Result.Equal(t.Result) {
		return false
	}
	for i := range t.Params {
		if !u.Params[i].Equal(t.Params[i]) {
			return false
		}
	}
	return true
}

// Common type singletons.
var (
	Void = &VoidType{}
	I1   = &IntType{Width: 1}
	I8   = &IntType{Width: 8}
	I32  = &IntType{Width: 32}
	I64  = &IntType{Width: 64}
)

// IsPointer reports whether t is a pointer type.
func IsPointer(t Type) bool { _, ok := t.(*PtrType); return ok }

// IsInteger reports whether t is an integer type.
func IsInteger(t Type) bool { _, ok := t.(*IntType); return ok }

// Pointee returns the pointed-to type of t, or nil when t is not a pointer.
func Pointee(t Type) Type {
	if p, ok := t.(*PtrType); ok {
		return p.Elem
	}
	return nil
}

// PointerTo returns the pointer type to elem. It makes one *PtrType per
// element type value, on first use, and keeps it on the element, so the
// frontend allocates a pointer type once per type rather than once per
// use. Concurrent calls agree on the one they return.
func PointerTo(elem Type) *PtrType {
	c := elem.pointer()
	if p := c.ptr.Load(); p != nil {
		return p
	}
	c.ptr.CompareAndSwap(nil, &PtrType{Elem: elem})
	return c.ptr.Load()
}

// NumFields returns the number of struct fields transitively visible at the
// first level of t (pointers are looked through once). It is used by the
// path validator to count the implicit field-equality constraints an
// alias-unaware encoding would need (Figure 9 of the paper).
func NumFields(t Type) int {
	if p, ok := t.(*PtrType); ok {
		t = p.Elem
	}
	if s, ok := t.(*StructType); ok {
		return len(s.Fields)
	}
	return 0
}
