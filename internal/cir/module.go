package cir

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"

	"repro/internal/slab"
)

// Block is a basic block: a straight-line sequence of instructions ending in
// a terminator.
type Block struct {
	Name   string
	Fn     *Function
	Instrs []Instr
}

// Append adds an instruction to the block and wires its parent pointer and
// block index. A block of a function fills the function's instruction
// arena in place while it is the block appended to last (see
// Function.reopen).
func (b *Block) Append(in Instr) Instr {
	in.setBlock(b, len(b.Instrs))
	if b.Fn != nil && len(b.Instrs) == cap(b.Instrs) {
		b.Fn.reopen(b)
	}
	b.Instrs = append(b.Instrs, in)
	return in
}

// Terminator returns the block's final instruction when it is a terminator,
// or nil.
func (b *Block) Terminator() Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !IsTerminator(t) {
		return nil
	}
	return t
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	switch t := b.Terminator().(type) {
	case *Br:
		return []*Block{t.Target}
	case *CondBr:
		return []*Block{t.True, t.False}
	}
	return nil
}

// Function is a CIR function definition or declaration (no blocks).
type Function struct {
	Name   string
	Typ    *FuncType
	Params []*Register
	Blocks []*Block
	Pos    Pos
	File   string // defining source file
	Static bool   // file-local, as in C 'static'
	// Category labels the OS part the function belongs to (drivers, net,
	// fs, subsystem, thirdparty, other); filled by the corpus generator and
	// used by the Figure 11 experiment.
	Category string

	nextReg int
	// The function's registers hold value IDs vidBase+1 .. vidBase+nvids
	// (see Module.ExtendGIDs).
	vidBase, nvids int
	// stack has bit r.ID set for each register r the Builder marked as a
	// stack address (see IsStackAddr).
	stack []uint64
	fp    uint64 // memoized Fingerprint; 0 = not yet computed

	// A body's blocks and constants come from the function's own slabs,
	// and its blocks' instruction slices from one arena, so they cost an
	// allocation per chunk rather than one per object; a register comes
	// in one object with the instruction that defines it (see Builder).
	// Per function, they stay valid however many modules share it.
	blocks slab.Of[Block]
	consts slab.Of[Const]
	// arena is the unused tail of the instruction arena's chunk, starting
	// at the first instruction of open, the one block whose slice may grow
	// into it.
	arena []Instr
	open  *Block
}

// arenaChunk is the instruction arena's chunk size, in instructions: a
// generated body has 25 on average.
const arenaChunk = 16

// reopen makes b the block whose slice grows into the instruction arena:
// it moves b's instructions to the start of the arena's free tail and gives
// b the rest of the tail as capacity. The previously open block keeps its
// instructions where they are, its capacity cut to their number. A region a
// block left is never written again, so a slice of it stays valid.
func (fn *Function) reopen(b *Block) {
	if o := fn.open; o != nil {
		n := len(o.Instrs)
		o.Instrs = o.Instrs[:n:n]
		fn.arena = fn.arena[min(n, len(fn.arena)):]
	}
	n := len(b.Instrs)
	if len(fn.arena) <= n {
		fn.arena = make([]Instr, max(arenaChunk, 2*(n+1)))
	}
	copy(fn.arena, b.Instrs)
	b.Instrs = fn.arena[:n]
	fn.open = b
}

// NumRegs returns how many registers fn has made.
func (fn *Function) NumRegs() int { return fn.nextReg }

func (fn *Function) markStackAddr(r *Register) {
	w := r.ID >> 6
	if w >= len(fn.stack) {
		fn.stack = append(fn.stack, make([]uint64, w+1-len(fn.stack))...)
	}
	fn.stack[w] |= 1 << (r.ID & 63)
}

func (fn *Function) stackAddr(id int) bool {
	w := id >> 6
	return w < len(fn.stack) && fn.stack[w]&(1<<(id&63)) != 0
}

// IsDecl reports whether fn has no body (an external declaration).
func (fn *Function) IsDecl() bool { return len(fn.Blocks) == 0 }

// Entry returns the entry block, or nil for declarations.
func (fn *Function) Entry() *Block {
	if len(fn.Blocks) == 0 {
		return nil
	}
	return fn.Blocks[0]
}

// NewBlock creates, appends and returns a new basic block, named base
// followed by its index in the function.
func (fn *Function) NewBlock(base string) *Block {
	return fn.AddBlock(base + strconv.Itoa(len(fn.Blocks)))
}

// AddBlock is NewBlock for a caller that has built the block's name
// itself.
func (fn *Function) AddBlock(name string) *Block {
	b := fn.blocks.New(Block{Name: name, Fn: fn})
	fn.Blocks = append(fn.Blocks, b)
	return b
}

// NewReg creates a fresh virtual register of type t.
func (fn *Function) NewReg(name string, t Type) *Register {
	fn.nextReg++
	return &Register{ID: fn.nextReg, Name: name, Typ: t, Fn: fn}
}

// IntConst returns an integer constant of type t, as the package-level
// IntConst does, from fn's slab. Each call makes a distinct constant: the
// alias graph tells constants apart by identity.
func (fn *Function) IntConst(t Type, v int64) *Const {
	return fn.consts.New(Const{Typ: t, Val: v})
}

// NullConst returns a NULL constant of pointer type t from fn's slab (see
// IntConst).
func (fn *Function) NullConst(t Type) *Const {
	return fn.consts.New(Const{Typ: t, IsNull: true})
}

// AddParam appends a formal parameter register.
func (fn *Function) AddParam(name string, t Type) *Register {
	r := fn.NewReg(name, t)
	fn.Params = append(fn.Params, r)
	return r
}

// Instrs calls f for every instruction in the function.
func (fn *Function) Instrs(f func(Instr)) {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			f(in)
		}
	}
}

// NumInstrs returns the instruction count.
func (fn *Function) NumInstrs() int {
	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Module is a set of functions, struct types and globals, typically the
// result of parsing one or more source files (the paper's per-OS "LLVM
// bytecode" plus the P1 function-information database).
type Module struct {
	Name    string
	Funcs   map[string]*Function
	Structs map[string]*StructType
	Globals map[string]*Global
	// Files lists the source files that were lowered into the module.
	Files []string
	// SourceLines is the total number of source lines lowered (for the
	// Table 4/5 "source code lines" statistics).
	SourceLines int
	// AddressTaken records function names referenced from global aggregate
	// initializers (e.g. .probe = s5p_mfc_probe in a driver ops struct).
	// Such functions have no explicit caller and are analysis entry points
	// (Figure 1 of the paper).
	AddressTaken map[string]bool

	order          []string
	maxGID, maxVID int
	// calleeIdx numbers the callee names of the module's calls (from 1);
	// callees[i] is the function the name numbered i denotes here, nil when
	// the module does not declare it. ExtendGIDs fills both.
	calleeIdx map[string]int32
	callees   []*Function
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:         name,
		Funcs:        make(map[string]*Function),
		Structs:      make(map[string]*StructType),
		Globals:      make(map[string]*Global),
		AddressTaken: make(map[string]bool),
	}
}

// NewFunction creates and registers a function. Duplicate names are
// disambiguated with a file-scope suffix when static.
func (m *Module) NewFunction(name string, typ *FuncType) *Function {
	fn := &Function{Name: name, Typ: typ}
	m.AddFunction(fn)
	return fn
}

// AddFunction registers fn under its name and appends it to definition
// order. A frontend that creates functions before it knows their order
// (minicc declares every file before it lowers any body) enters them in
// Funcs first and calls AddFunction once the order is settled. It does not
// write fn, which several modules may share.
func (m *Module) AddFunction(fn *Function) {
	m.Funcs[fn.Name] = fn
	m.order = append(m.order, fn.Name)
}

// AddGlobal registers a global variable.
func (m *Module) AddGlobal(name string, elem Type) *Global {
	g := &Global{Name: name, Elem: elem}
	m.Globals[name] = g
	return g
}

// AddStruct registers a struct type.
func (m *Module) AddStruct(st *StructType) { m.Structs[st.Name] = st }

// FuncNames returns function names in definition order.
func (m *Module) FuncNames() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// SortedFuncs returns the functions sorted by name (for deterministic
// iteration in analyses and tests).
func (m *Module) SortedFuncs() []*Function {
	names := make([]string, 0, len(m.Funcs))
	for n := range m.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Function, 0, len(names))
	for _, n := range names {
		out = append(out, m.Funcs[n])
	}
	return out
}

// AssignGIDs numbers every instruction in the module with a unique ID, and
// every instruction within a function with a function-local ID (LID). GIDs
// shift whenever any function changes; LIDs depend only on the owning
// function's body, which is what the incremental cache's content addressing
// needs. It also gives the globals and registers their value IDs and the
// calls their callee indexes (see ExtendGIDs). It must be called once after
// construction and before analysis.
func (m *Module) AssignGIDs() { m.ExtendGIDs(nil, m.SortedFuncs()) }

// ExtendGIDs numbers the module for Stage 1's dense tables, continuing
// prev's numbering (from scratch when prev is nil). It is AssignGIDs for a
// module that shares its other functions, already numbered, with prev.
//
//   - GIDs: fns' instructions, in the order given, get GIDs above
//     prev.MaxGID, and their LIDs. The module's GIDs are then unique but
//     need not be dense, which is why GID-indexed tables size by MaxGID.
//   - Value IDs: globals no module numbered yet (all of them when prev is
//     nil) get IDs from 1 in name order, then each function of fns gets a
//     base above prev.MaxVID, and its register r the ID base + r.ID. A
//     shared function keeps its base, so its registers keep their IDs.
//   - Callee indexes: each callee name gets a number, prev's numbers
//     carried over, so a call in a shared function finds its callee in this
//     module's table (Callee).
//
// It also computes each IndexAddr's Label text with its LID.
func (m *Module) ExtendGIDs(prev *Module, fns []*Function) {
	m.maxGID, m.maxVID, m.calleeIdx = 0, 0, nil
	if prev != nil {
		m.maxGID, m.maxVID, m.calleeIdx = prev.maxGID, prev.maxVID, prev.calleeIdx
	}
	var globals []*Global
	for _, g := range m.Globals {
		if g.vid == 0 || prev == nil {
			globals = append(globals, g)
		}
	}
	sort.Slice(globals, func(i, j int) bool { return globals[i].Name < globals[j].Name })
	for _, g := range globals {
		m.maxVID++
		g.vid = m.maxVID
	}
	owned := prev == nil
	for _, fn := range fns {
		fn.vidBase, fn.nvids = m.maxVID, fn.nextReg
		m.maxVID += fn.nextReg
		lid := 0
		fn.Instrs(func(in Instr) {
			m.maxGID++
			in.setGID(m.maxGID)
			lid++
			in.setLID(lid)
			switch t := in.(type) {
			case *IndexAddr:
				t.label = t.labelText()
			case *Call:
				i, ok := m.calleeIdx[t.Callee]
				if !ok {
					if !owned {
						m.calleeIdx, owned = maps.Clone(m.calleeIdx), true
					}
					if m.calleeIdx == nil {
						m.calleeIdx = make(map[string]int32)
					}
					i = int32(len(m.calleeIdx) + 1)
					m.calleeIdx[t.Callee] = i
				}
				t.callee = i
			}
		})
	}
	m.callees = make([]*Function, len(m.calleeIdx)+1)
	for name, i := range m.calleeIdx {
		m.callees[i] = m.Funcs[name]
	}
}

// MaxGID returns the highest GID AssignGIDs or ExtendGIDs gave out: a bound
// for tables indexed by GID.
func (m *Module) MaxGID() int { return m.maxGID }

// MaxVID returns the highest value ID AssignGIDs or ExtendGIDs gave out: a
// bound for tables indexed by value ID (cir.VID).
func (m *Module) MaxVID() int { return m.maxVID }

// Callee returns the function call c names, or nil when the module does not
// declare it. For a call ExtendGIDs numbered, in this module or in the one
// it continued, this is a table read.
func (m *Module) Callee(c *Call) *Function {
	if i := int(c.callee); i > 0 && i < len(m.callees) {
		return m.callees[i]
	}
	return m.Funcs[c.Callee]
}

// NumCallees returns a bound for tables indexed by callee index
// (Call.CalleeIndex).
func (m *Module) NumCallees() int { return len(m.callees) }

// NumInstrs returns the total instruction count.
func (m *Module) NumInstrs() int {
	n := 0
	for _, fn := range m.Funcs {
		n += fn.NumInstrs()
	}
	return n
}

// String renders the whole module in a readable assembly-like syntax.
func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; module %s\n", m.Name)
	for _, name := range m.FuncNames() {
		fn := m.Funcs[name]
		b.WriteString(fn.String())
		b.WriteString("\n")
	}
	return b.String()
}

// String renders the function body.
func (fn *Function) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s %s(", fn.Typ.Result, fn.Name)
	for i, p := range fn.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", p.Typ, p)
	}
	b.WriteString(")")
	if fn.IsDecl() {
		b.WriteString(" ; decl\n")
		return b.String()
	}
	b.WriteString(" {\n")
	for _, blk := range fn.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "\t%s\n", in)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
