package cir

import (
	"fmt"
	"strconv"
)

// Value is an operand of an instruction: a virtual register, a global, or a
// constant.
type Value interface {
	Type() Type
	String() string
}

// Register is an SSA-style virtual register. Registers are defined exactly
// once, either by an instruction (Def) or as a function parameter.
type Register struct {
	ID   int    // unique within the function
	Name string // source-level hint, may be empty
	Typ  Type
	Def  Instr     // defining instruction; nil for parameters
	Fn   *Function // owning function
}

func (r *Register) Type() Type { return r.Typ }

func (r *Register) String() string {
	if r.Name != "" {
		return "%" + r.Name + "." + strconv.Itoa(r.ID)
	}
	return "%t" + strconv.Itoa(r.ID)
}

// VID returns r's value ID: its function's value-ID base plus r.ID (see
// Module.ExtendGIDs), or 0 when no module numbered r's function or r was
// made after it was numbered.
func (r *Register) VID() int {
	if fn := r.Fn; fn != nil && uint(r.ID-1) < uint(fn.nvids) {
		return fn.vidBase + r.ID
	}
	return 0
}

// Global is a module-level variable. Its value is the address of the global
// storage, so its type is a pointer to the declared type (as in LLVM).
type Global struct {
	Name string
	Elem Type // declared type; the value's type is *Elem
	vid  int  // value ID; 0 until a module numbers it
}

// VID returns v's value ID: a dense, module-unique number for registers and
// globals that Stage 1 indexes its tables by (see Module.ExtendGIDs), or 0
// for constants and for values no module numbered.
func VID(v Value) int {
	switch t := v.(type) {
	case *Register:
		return t.VID()
	case *Global:
		return t.vid
	}
	return 0
}

// IsStackAddr reports whether v is an address rooted at an alloca or a
// global: a global, an Alloca's register, or a FieldAddr or IndexAddr of
// such an address. Dereferencing one cannot fault on NULL. The Builder
// marks a register when it emits its definition.
func IsStackAddr(v Value) bool {
	switch t := v.(type) {
	case *Global:
		return true
	case *Register:
		return t.Fn != nil && t.Fn.stackAddr(t.ID)
	}
	return false
}

func (g *Global) Type() Type     { return PointerTo(g.Elem) }
func (g *Global) String() string { return "@" + g.Name }

// Const is an integer or null-pointer constant.
type Const struct {
	Typ    Type
	Val    int64
	IsNull bool // true for the NULL pointer constant
	Str    string
	IsStr  bool // true for opaque string literals
}

func (c *Const) Type() Type { return c.Typ }

func (c *Const) String() string {
	switch {
	case c.IsNull:
		return "null"
	case c.IsStr:
		return strconv.Quote(c.Str)
	default:
		return strconv.FormatInt(c.Val, 10)
	}
}

// IntConst returns an integer constant of the given type.
func IntConst(t Type, v int64) *Const { return &Const{Typ: t, Val: v} }

// NullConst returns the NULL constant of pointer type t.
func NullConst(t Type) *Const { return &Const{Typ: t, IsNull: true} }

// StrConst returns an opaque string-literal constant (type i8*).
func StrConst(s string) *Const { return &Const{Typ: PointerTo(I8), Str: s, IsStr: true} }

// IsZero reports whether v is the integer constant 0 or the NULL pointer.
func IsZero(v Value) bool {
	c, ok := v.(*Const)
	return ok && !c.IsStr && (c.IsNull || c.Val == 0)
}

// IsNullConst reports whether v is the NULL pointer constant or a zero
// constant of pointer type.
func IsNullConst(v Value) bool {
	c, ok := v.(*Const)
	if !ok {
		return false
	}
	return c.IsNull || (c.Val == 0 && IsPointer(c.Typ))
}

// Pos is a source position.
type Pos struct {
	File string
	Line int
}

func (p Pos) String() string {
	if p.File == "" && p.Line == 0 {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d", p.File, p.Line)
}

// IsValid reports whether p carries real position information.
func (p Pos) IsValid() bool { return p.Line != 0 }
