package cir

import (
	"fmt"
	"strconv"
	"strings"
)

// Instr is a CIR instruction. All instructions know their parent block and
// their global ID (unique within the module), which the path-sensitive
// engine uses for loop detection and bug deduplication.
type Instr interface {
	// Dest returns the register defined by the instruction, or nil.
	Dest() *Register
	// Operands returns the used values.
	Operands() []Value
	// Block returns the containing basic block.
	Block() *Block
	// GID returns the module-unique instruction ID.
	GID() int
	// LID returns the function-local instruction ID (1-based, in block
	// order). Unlike the GID, it is stable under edits to other functions,
	// so it is safe to embed in data that outlives one module instance —
	// alias-graph index tokens that reach report output, and the capsules
	// the incremental cache persists across runs.
	LID() int
	// BlockIndex returns the instruction's index in its block's Instrs,
	// which Block.Append records: the engine's successor lookup reads
	// Instrs[BlockIndex()+1] instead of searching the block.
	BlockIndex() int
	// Position returns the source position.
	Position() Pos
	String() string

	setBlock(*Block, int)
	setGID(int)
	setLID(int)
}

// instr carries the bookkeeping shared by all instructions. Its numbers
// are 32-bit fields packed into two words, so that recording the block
// index and a call's callee index costs no space.
type instr struct {
	blk      *Block
	gid, lid int32
	idx      int32
	// callee is a Call's callee index (see Module.Callee), 0 until
	// numbered and for every other instruction.
	callee int32
	Pos    Pos
}

func (i *instr) Block() *Block                { return i.blk }
func (i *instr) GID() int                     { return int(i.gid) }
func (i *instr) LID() int                     { return int(i.lid) }
func (i *instr) BlockIndex() int              { return int(i.idx) }
func (i *instr) Position() Pos                { return i.Pos }
func (i *instr) setBlock(b *Block, index int) { i.blk, i.idx = b, int32(index) }
func (i *instr) setGID(id int)                { i.gid = int32(id) }
func (i *instr) setLID(id int)                { i.lid = int32(id) }

// Alloca allocates stack storage for one value of type Elem and defines Dst
// as its address (Dst has type *Elem).
type Alloca struct {
	instr
	Dst  *Register
	Elem Type
	// VarName is the source-level variable name, for reports.
	VarName string
}

func (i *Alloca) Dest() *Register   { return i.Dst }
func (i *Alloca) Operands() []Value { return nil }
func (i *Alloca) String() string {
	return fmt.Sprintf("%s = alloca %s ; %s", i.Dst, i.Elem, i.VarName)
}

// Move copies Src into Dst (a register-to-register or constant-to-register
// copy; the MOVE operation of the paper's alias analysis).
type Move struct {
	instr
	Dst *Register
	Src Value
}

func (i *Move) Dest() *Register   { return i.Dst }
func (i *Move) Operands() []Value { return []Value{i.Src} }
func (i *Move) String() string    { return fmt.Sprintf("%s = move %s", i.Dst, i.Src) }

// Load defines Dst with the value stored at Addr (v1 = *v2).
type Load struct {
	instr
	Dst  *Register
	Addr Value
}

func (i *Load) Dest() *Register   { return i.Dst }
func (i *Load) Operands() []Value { return []Value{i.Addr} }
func (i *Load) String() string    { return fmt.Sprintf("%s = load %s", i.Dst, i.Addr) }

// Store writes Val to the location Addr (*v2 = v1).
type Store struct {
	instr
	Addr Value
	Val  Value
}

func (i *Store) Dest() *Register   { return nil }
func (i *Store) Operands() []Value { return []Value{i.Addr, i.Val} }
func (i *Store) String() string    { return fmt.Sprintf("store %s <- %s", i.Addr, i.Val) }

// FieldAddr computes the address of field Field of the struct pointed to by
// Base (v1 = &v2->f; the GEP operation of the paper).
type FieldAddr struct {
	instr
	Dst   *Register
	Base  Value
	Field string
}

func (i *FieldAddr) Dest() *Register   { return i.Dst }
func (i *FieldAddr) Operands() []Value { return []Value{i.Base} }
func (i *FieldAddr) String() string {
	return fmt.Sprintf("%s = fieldaddr %s, .%s", i.Dst, i.Base, i.Field)
}

// IndexAddr computes the address of element Index of the array pointed to by
// Base. PATA is array-insensitive for non-constant indexes: the alias engine
// labels a constant index "[k]" and a non-constant index with a token unique
// to this instruction (see §5.2 of the paper and Label).
type IndexAddr struct {
	instr
	Dst   *Register
	Base  Value
	Index Value
	// label is Label's text, computed once by Module.ExtendGIDs.
	label string
}

// Label returns the alias-graph label text of the element address: the
// decimal text of a constant index, so a[3] aliases a[3], and otherwise
// "i@" plus the instruction's SiteToken, so every non-constant index names
// its own element. The token is content-stable across unrelated module
// edits (these labels reach report output through alias sets, and the
// incremental cache replays reports byte for byte). ExtendGIDs computes the
// text when it gives the instruction its LID, so the engine's step and the
// path replayer read it without allocating; an instruction no module
// numbered computes it on every call.
func (i *IndexAddr) Label() string {
	if i.label != "" {
		return i.label
	}
	return i.labelText()
}

func (i *IndexAddr) labelText() string {
	if c, ok := i.Index.(*Const); ok && !c.IsStr {
		return strconv.FormatInt(c.Val, 10)
	}
	return "i@" + SiteToken(i)
}

func (i *IndexAddr) Dest() *Register   { return i.Dst }
func (i *IndexAddr) Operands() []Value { return []Value{i.Base, i.Index} }
func (i *IndexAddr) String() string {
	return fmt.Sprintf("%s = indexaddr %s, [%s]", i.Dst, i.Base, i.Index)
}

// BinaryOp is an arithmetic or bitwise operator.
type BinaryOp string

// Binary operators.
const (
	OpAdd BinaryOp = "add"
	OpSub BinaryOp = "sub"
	OpMul BinaryOp = "mul"
	OpDiv BinaryOp = "div"
	OpRem BinaryOp = "rem"
	OpAnd BinaryOp = "and"
	OpOr  BinaryOp = "or"
	OpXor BinaryOp = "xor"
	OpShl BinaryOp = "shl"
	OpShr BinaryOp = "shr"
)

// BinOp defines Dst = X op Y.
type BinOp struct {
	instr
	Dst  *Register
	Op   BinaryOp
	X, Y Value
}

func (i *BinOp) Dest() *Register   { return i.Dst }
func (i *BinOp) Operands() []Value { return []Value{i.X, i.Y} }
func (i *BinOp) String() string {
	return fmt.Sprintf("%s = %s %s, %s", i.Dst, i.Op, i.X, i.Y)
}

// Pred is a comparison predicate.
type Pred string

// Comparison predicates.
const (
	PredEQ Pred = "eq"
	PredNE Pred = "ne"
	PredLT Pred = "lt"
	PredLE Pred = "le"
	PredGT Pred = "gt"
	PredGE Pred = "ge"
)

// Valid reports whether p is one of the six comparison predicates.
func (p Pred) Valid() bool {
	switch p {
	case PredEQ, PredNE, PredLT, PredLE, PredGT, PredGE:
		return true
	}
	return false
}

// Negate returns the logically negated predicate.
func (p Pred) Negate() Pred {
	switch p {
	case PredEQ:
		return PredNE
	case PredNE:
		return PredEQ
	case PredLT:
		return PredGE
	case PredLE:
		return PredGT
	case PredGT:
		return PredLE
	case PredGE:
		return PredLT
	}
	return p
}

// Cmp defines the boolean register Dst = X pred Y.
type Cmp struct {
	instr
	Dst  *Register
	Pred Pred
	X, Y Value
}

func (i *Cmp) Dest() *Register   { return i.Dst }
func (i *Cmp) Operands() []Value { return []Value{i.X, i.Y} }
func (i *Cmp) String() string {
	return fmt.Sprintf("%s = cmp %s %s, %s", i.Dst, i.Pred, i.X, i.Y)
}

// Call is a direct call to the named function. Indirect (function-pointer)
// calls are not modelled, matching the paper's stated limitation (§7).
type Call struct {
	instr
	Dst    *Register // nil for void calls or ignored results
	Callee string
	Args   []Value
}

func (i *Call) Dest() *Register   { return i.Dst }
func (i *Call) Operands() []Value { return i.Args }
func (i *Call) String() string {
	var b strings.Builder
	if i.Dst != nil {
		fmt.Fprintf(&b, "%s = ", i.Dst)
	}
	fmt.Fprintf(&b, "call %s(", i.Callee)
	for j, a := range i.Args {
		if j > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteString(")")
	return b.String()
}

// Br is an unconditional branch.
type Br struct {
	instr
	Target *Block
}

func (i *Br) Dest() *Register   { return nil }
func (i *Br) Operands() []Value { return nil }
func (i *Br) String() string    { return "br " + i.Target.Name }

// CondBr branches to True when Cond is non-zero, else to False.
type CondBr struct {
	instr
	Cond  Value
	True  *Block
	False *Block
}

func (i *CondBr) Dest() *Register   { return nil }
func (i *CondBr) Operands() []Value { return []Value{i.Cond} }
func (i *CondBr) String() string {
	return fmt.Sprintf("condbr %s, %s, %s", i.Cond, i.True.Name, i.False.Name)
}

// Ret returns from the function, optionally with a value.
type Ret struct {
	instr
	Val Value // nil for void returns
}

func (i *Ret) Dest() *Register { return nil }
func (i *Ret) Operands() []Value {
	if i.Val == nil {
		return nil
	}
	return []Value{i.Val}
}
func (i *Ret) String() string {
	if i.Val == nil {
		return "ret"
	}
	return "ret " + i.Val.String()
}

// IsTerminator reports whether in ends a basic block.
func IsTerminator(in Instr) bool {
	switch in.(type) {
	case *Br, *CondBr, *Ret:
		return true
	}
	return false
}
