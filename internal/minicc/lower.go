package minicc

import (
	"fmt"
	"sort"

	"repro/internal/cir"
)

// Lower parses src and lowers it into mod. Several files may be lowered into
// the same module; cross-file calls resolve by name, as the paper's P1
// function-information database enables.
func Lower(mod *cir.Module, file, src string) error {
	f, err := Parse(file, src)
	if err != nil {
		return err
	}
	return LowerFile(mod, f)
}

// LowerFile lowers a parsed file into mod.
func LowerFile(mod *cir.Module, f *File) error {
	lw := &lowerer{mod: mod, file: f, enums: make(map[string]int64), statics: make(map[string]string)}
	lw.run()
	mod.Files = append(mod.Files, f.Name)
	mod.SourceLines += f.Lines
	if len(lw.errs) > 0 {
		return lw.errs[0]
	}
	return nil
}

// LowerAll lowers a set of sources (file name → text) into one module and
// assigns instruction IDs.
func LowerAll(name string, sources map[string]string) (*cir.Module, error) {
	mod := cir.NewModule(name)
	// Deterministic file order.
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := Lower(mod, n, sources[n]); err != nil {
			return mod, err
		}
	}
	mod.AssignGIDs()
	if err := cir.Verify(mod); err != nil {
		return mod, fmt.Errorf("lowered module fails verification: %w", err)
	}
	return mod, nil
}

type lowerer struct {
	mod  *cir.Module
	file *File
	errs []error

	enums   map[string]int64
	statics map[string]string // source name -> mangled module name

	// per-function state
	fn      *cir.Function
	b       *cir.Builder
	scopes  []map[string]*cir.Register
	labels  map[string]*cir.Block
	defined map[string]bool // labels that have a LabelStmt
	gotos   map[string]Position
	// breaks is the stack of break targets (loops and switches); conts is
	// the stack of continue targets (loops only).
	breaks []*cir.Block
	conts  []*cir.Block
}

func (lw *lowerer) errorf(pos Position, format string, args ...any) {
	lw.errs = append(lw.errs, &Error{File: pos.File, Line: pos.Line, Col: pos.Col, Msg: fmt.Sprintf(format, args...)})
}

func (lw *lowerer) run() {
	for _, e := range lw.file.Enums {
		for i, n := range e.Names {
			lw.enums[n] = e.Vals[i]
		}
	}
	for _, sd := range lw.file.Structs {
		lw.lowerStruct(sd)
	}
	for _, g := range lw.file.Globals {
		lw.lowerGlobal(g)
	}
	// Declare all functions first so forward calls type-resolve.
	for _, fd := range lw.file.Funcs {
		lw.declareFunc(fd)
	}
	for _, fd := range lw.file.Funcs {
		if fd.Body != nil {
			lw.lowerFunc(fd)
		}
	}
}

// resolveStruct returns (creating if needed) the nominal struct type.
func (lw *lowerer) resolveStruct(tag string) *cir.StructType {
	if st, ok := lw.mod.Structs[tag]; ok {
		return st
	}
	st := &cir.StructType{Name: tag}
	lw.mod.AddStruct(st)
	return st
}

// resolveType maps a syntactic type to a CIR type.
func (lw *lowerer) resolveType(te TypeExpr) cir.Type {
	var t cir.Type
	switch {
	case te.IsStruct:
		t = lw.resolveStruct(te.Base)
	case te.Base == "char":
		t = cir.I8
	case te.Base == "void":
		if te.Ptr > 0 {
			// void* is modelled as i8*.
			t = cir.I8
		} else {
			t = cir.Void
		}
	default:
		t = cir.I64
	}
	for i := 0; i < te.Ptr; i++ {
		t = cir.PointerTo(t)
	}
	if te.ArrayLen > 0 {
		t = &cir.ArrayType{Elem: t, Len: te.ArrayLen}
	}
	return t
}

func (lw *lowerer) lowerStruct(sd *StructDecl) {
	st := lw.resolveStruct(sd.Name)
	if len(st.Fields) > 0 {
		return // keep first definition; duplicates across files are common headers
	}
	for _, f := range sd.Fields {
		st.Fields = append(st.Fields, cir.Field{Name: f.Name, Type: lw.resolveType(f.Type)})
	}
}

func (lw *lowerer) lowerGlobal(g *VarDecl) {
	if _, exists := lw.mod.Globals[g.Name]; !exists {
		lw.mod.AddGlobal(g.Name, lw.resolveType(g.Type))
	}
	for _, n := range g.InitNames {
		lw.mod.AddressTaken[n] = true
	}
}

// moduleName returns the module-level name of a source-level function,
// mangling statics on collision.
func (lw *lowerer) moduleName(fd *FuncDecl) string {
	if mangled, ok := lw.statics[fd.Name]; ok {
		return mangled
	}
	name := fd.Name
	if prev, ok := lw.mod.Funcs[name]; ok && !prev.IsDecl() && fd.Body != nil {
		if fd.Static {
			name = fd.Name + "@" + lw.file.Name
			lw.statics[fd.Name] = name
		} else {
			lw.errorf(fd.Pos, "redefinition of function %s", fd.Name)
		}
	}
	return name
}

func (lw *lowerer) funcType(fd *FuncDecl) *cir.FuncType {
	ft := &cir.FuncType{Result: lw.resolveType(fd.Result), Variadic: fd.Variadic}
	for _, p := range fd.Params {
		ft.Params = append(ft.Params, lw.resolveType(p.Type))
	}
	return ft
}

func (lw *lowerer) declareFunc(fd *FuncDecl) {
	name := lw.moduleName(fd)
	if prev, ok := lw.mod.Funcs[name]; ok {
		if prev.IsDecl() && fd.Body != nil {
			prev.Typ = lw.funcType(fd) // refine declaration with definition's type
		}
		return
	}
	fn := lw.mod.NewFunction(name, lw.funcType(fd))
	fn.Pos = cir.Pos{File: fd.Pos.File, Line: fd.Pos.Line}
	fn.File = lw.file.Name
	fn.Static = fd.Static
}

// getOrDeclare returns the function for a call target, creating an implicit
// external declaration for unknown names (as pre-C99 C does).
func (lw *lowerer) getOrDeclare(name string, nargs int) *cir.Function {
	if mangled, ok := lw.statics[name]; ok {
		name = mangled
	}
	if fn, ok := lw.mod.Funcs[name]; ok {
		return fn
	}
	ft := &cir.FuncType{Result: cir.I64, Variadic: true}
	for i := 0; i < nargs; i++ {
		ft.Params = append(ft.Params, cir.I64)
	}
	return lw.mod.NewFunction(name, ft)
}

// ---- function bodies ----

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, make(map[string]*cir.Register)) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *lowerer) define(name string, addr *cir.Register) {
	lw.scopes[len(lw.scopes)-1][name] = addr
}

func (lw *lowerer) lookup(name string) *cir.Register {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if r, ok := lw.scopes[i][name]; ok {
			return r
		}
	}
	return nil
}

func (lw *lowerer) at(pos Position) {
	lw.b.AtLine(pos.File, pos.Line)
}

func (lw *lowerer) lowerFunc(fd *FuncDecl) {
	name := lw.moduleName(fd)
	fn := lw.mod.Funcs[name]
	if fn == nil || !fn.IsDecl() {
		// Either an error was reported, or the same (non-static) function
		// appears twice; skip the duplicate body.
		if fn != nil && !fn.IsDecl() {
			return
		}
		fn = lw.mod.NewFunction(name, lw.funcType(fd))
	}
	fn.Typ = lw.funcType(fd)
	fn.Pos = cir.Pos{File: fd.Pos.File, Line: fd.Pos.Line}
	fn.File = lw.file.Name
	fn.Static = fd.Static
	lw.fn = fn
	lw.b = cir.NewBuilder(fn)
	lw.labels = make(map[string]*cir.Block)
	lw.defined = make(map[string]bool)
	lw.gotos = make(map[string]Position)
	lw.breaks = nil
	lw.conts = nil
	lw.scopes = nil
	lw.pushScope()
	lw.at(fd.Pos)

	// Parameters become allocas so they are assignable lvalues, exactly as
	// Clang -O0 lowers them. The initial store links the parameter register
	// to the local slot for the alias analysis.
	for _, pd := range fd.Params {
		pt := lw.resolveType(pd.Type)
		preg := fn.AddParam(pd.Name, pt)
		slot := lw.b.Alloca(pd.Name, pt)
		lw.b.Store(slot, preg)
		lw.define(pd.Name, slot)
	}
	lw.lowerBlockStmt(fd.Body)
	for label, pos := range lw.gotos {
		if !lw.defined[label] {
			lw.errorf(pos, "goto undefined label %s", label)
		}
	}
	lw.sealFunction()
	lw.popScope()
}

// sealFunction gives every unterminated block a return of the zero value,
// covering both fall-off-the-end paths and unreferenced label blocks.
func (lw *lowerer) sealFunction() {
	for _, blk := range lw.fn.Blocks {
		if blk.Terminator() != nil {
			continue
		}
		lw.b.SetBlock(blk)
		lw.emitDefaultRet()
	}
}

func (lw *lowerer) emitDefaultRet() {
	res := lw.fn.Typ.Result
	switch {
	case res.Equal(cir.Void):
		lw.b.Ret(nil)
	case cir.IsPointer(res):
		lw.b.Ret(cir.NullConst(res))
	default:
		lw.b.Ret(cir.IntConst(res, 0))
	}
}

func (lw *lowerer) labelBlock(name string) *cir.Block {
	if blk, ok := lw.labels[name]; ok {
		return blk
	}
	blk := lw.fn.NewBlock("L." + name)
	lw.labels[name] = blk
	return blk
}

// ---- statements ----

func (lw *lowerer) lowerBlockStmt(bs *BlockStmt) {
	lw.pushScope()
	for _, s := range bs.Stmts {
		lw.lowerStmt(s)
	}
	lw.popScope()
}

func (lw *lowerer) lowerStmt(s Stmt) {
	switch st := s.(type) {
	case *BlockStmt:
		lw.lowerBlockStmt(st)
	case *EmptyStmt:
	case *DeclStmt:
		lw.at(st.Pos)
		for _, d := range st.Decls {
			lw.lowerLocalDecl(d)
		}
	case *ExprStmt:
		lw.at(st.Pos)
		lw.lowerExpr(st.X)
	case *IfStmt:
		lw.lowerIf(st)
	case *WhileStmt:
		lw.lowerWhile(st)
	case *ForStmt:
		lw.lowerFor(st)
	case *ReturnStmt:
		lw.at(st.Pos)
		if st.X == nil {
			lw.emitDefaultRet()
		} else {
			v := lw.lowerExpr(st.X)
			lw.b.Ret(v)
		}
	case *GotoStmt:
		lw.at(st.Pos)
		if _, seen := lw.gotos[st.Label]; !seen {
			lw.gotos[st.Label] = st.Pos
		}
		lw.b.Br(lw.labelBlock(st.Label))
	case *LabelStmt:
		lw.defined[st.Name] = true
		blk := lw.labelBlock(st.Name)
		lw.at(st.Pos)
		lw.b.Br(blk) // fallthrough into the label
		lw.b.SetBlock(blk)
		lw.lowerStmt(st.Stmt)
	case *BreakStmt:
		lw.at(st.Pos)
		if len(lw.breaks) == 0 {
			lw.errorf(st.Pos, "break outside loop or switch")
			return
		}
		lw.b.Br(lw.breaks[len(lw.breaks)-1])
	case *ContinueStmt:
		lw.at(st.Pos)
		if len(lw.conts) == 0 {
			lw.errorf(st.Pos, "continue outside loop")
			return
		}
		lw.b.Br(lw.conts[len(lw.conts)-1])
	case *SwitchStmt:
		lw.lowerSwitch(st)
	default:
		lw.errorf(s.stmtPos(), "unsupported statement %T", s)
	}
}

func (lw *lowerer) lowerLocalDecl(d *VarDecl) {
	lw.at(d.Pos)
	t := lw.resolveType(d.Type)
	slot := lw.b.Alloca(d.Name, t)
	lw.define(d.Name, slot)
	switch {
	case d.AggregateInit:
		// A brace initializer zero-fills the object; lower it as a memset
		// so the UVA checker sees the bulk initialization.
		lw.b.Call("", "memset", cir.Void, slot, cir.IntConst(cir.I64, 0),
			cir.IntConst(cir.I64, lw.sizeOf(t)))
	case d.Init != nil:
		v := lw.lowerExpr(d.Init)
		lw.b.Store(slot, v)
	}
}

func (lw *lowerer) lowerIf(st *IfStmt) {
	then := lw.fn.NewBlock("if.then")
	end := lw.fn.NewBlock("if.end")
	els := end
	if st.Else != nil {
		els = lw.fn.NewBlock("if.else")
	}
	lw.at(st.Pos)
	lw.lowerCond(st.Cond, then, els)
	lw.b.SetBlock(then)
	lw.lowerStmt(st.Then)
	lw.b.Br(end)
	if st.Else != nil {
		lw.b.SetBlock(els)
		lw.lowerStmt(st.Else)
		lw.b.Br(end)
	}
	lw.b.SetBlock(end)
}

func (lw *lowerer) lowerWhile(st *WhileStmt) {
	head := lw.fn.NewBlock("while.head")
	body := lw.fn.NewBlock("while.body")
	end := lw.fn.NewBlock("while.end")
	lw.at(st.Pos)
	if st.DoWhile {
		lw.b.Br(body)
	} else {
		lw.b.Br(head)
	}
	lw.b.SetBlock(head)
	lw.at(st.Pos)
	lw.lowerCond(st.Cond, body, end)
	lw.b.SetBlock(body)
	lw.breaks = append(lw.breaks, end)
	lw.conts = append(lw.conts, head)
	lw.lowerStmt(st.Body)
	lw.conts = lw.conts[:len(lw.conts)-1]
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.b.Br(head)
	lw.b.SetBlock(end)
}

func (lw *lowerer) lowerFor(st *ForStmt) {
	lw.pushScope()
	if st.Init != nil {
		lw.lowerStmt(st.Init)
	}
	head := lw.fn.NewBlock("for.head")
	body := lw.fn.NewBlock("for.body")
	post := lw.fn.NewBlock("for.post")
	end := lw.fn.NewBlock("for.end")
	lw.at(st.Pos)
	lw.b.Br(head)
	lw.b.SetBlock(head)
	if st.Cond != nil {
		lw.at(st.Pos)
		lw.lowerCond(st.Cond, body, end)
	} else {
		lw.b.Br(body)
	}
	lw.b.SetBlock(body)
	lw.breaks = append(lw.breaks, end)
	lw.conts = append(lw.conts, post)
	lw.lowerStmt(st.Body)
	lw.conts = lw.conts[:len(lw.conts)-1]
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.b.Br(post)
	lw.b.SetBlock(post)
	if st.Post != nil {
		lw.lowerExpr(st.Post)
	}
	lw.b.Br(head)
	lw.b.SetBlock(end)
	lw.popScope()
}

func (lw *lowerer) lowerSwitch(st *SwitchStmt) {
	lw.at(st.Pos)
	tag := lw.lowerExpr(st.Tag)
	end := lw.fn.NewBlock("sw.end")

	// Create a body block per clause so fallthrough works.
	bodies := make([]*cir.Block, len(st.Cases))
	for i := range st.Cases {
		bodies[i] = lw.fn.NewBlock("sw.case")
	}
	var defaultBlk *cir.Block = end
	// Dispatch chain.
	for i, cc := range st.Cases {
		if cc.IsDefault {
			defaultBlk = bodies[i]
			continue
		}
		lw.at(cc.Pos)
		v := lw.lowerExpr(cc.Val)
		c := lw.b.Cmp("sw", cir.PredEQ, tag, v)
		next := lw.fn.NewBlock("sw.test")
		lw.b.CondBr(c, bodies[i], next)
		lw.b.SetBlock(next)
	}
	lw.b.Br(defaultBlk)

	lw.breaks = append(lw.breaks, end)
	for i, cc := range st.Cases {
		lw.b.SetBlock(bodies[i])
		lw.pushScope()
		for _, s := range cc.Body {
			lw.lowerStmt(s)
		}
		lw.popScope()
		if i+1 < len(st.Cases) {
			lw.b.Br(bodies[i+1]) // fallthrough
		} else {
			lw.b.Br(end)
		}
	}
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.b.SetBlock(end)
}

// ---- conditions ----

// lowerCond lowers e as a branch condition with short-circuit evaluation.
func (lw *lowerer) lowerCond(e Expr, yes, no *cir.Block) {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case "&&":
			mid := lw.fn.NewBlock("and.rhs")
			lw.lowerCond(x.X, mid, no)
			lw.b.SetBlock(mid)
			lw.lowerCond(x.Y, yes, no)
			return
		case "||":
			mid := lw.fn.NewBlock("or.rhs")
			lw.lowerCond(x.X, yes, mid)
			lw.b.SetBlock(mid)
			lw.lowerCond(x.Y, yes, no)
			return
		}
		if pred, ok := cmpPred(x.Op); ok {
			lw.at(x.Pos)
			a := lw.lowerExpr(x.X)
			b := lw.lowerExpr(x.Y)
			a, b = lw.unifyCmpOperands(a, b)
			c := lw.b.Cmp("cond", pred, a, b)
			lw.b.CondBr(c, yes, no)
			return
		}
	case *Unary:
		if x.Op == "!" {
			lw.lowerCond(x.X, no, yes)
			return
		}
	}
	lw.at(e.exprPos())
	v := lw.lowerExpr(e)
	var zero cir.Value
	if cir.IsPointer(v.Type()) {
		zero = cir.NullConst(v.Type())
	} else {
		zero = cir.IntConst(v.Type(), 0)
	}
	c := lw.b.Cmp("cond", cir.PredNE, v, zero)
	lw.b.CondBr(c, yes, no)
}

// unifyCmpOperands retypes an untyped NULL against the other pointer operand
// so comparisons read naturally.
func (lw *lowerer) unifyCmpOperands(a, b cir.Value) (cir.Value, cir.Value) {
	if ca, ok := a.(*cir.Const); ok && ca.IsNull && cir.IsPointer(b.Type()) {
		a = cir.NullConst(b.Type())
	}
	if cb, ok := b.(*cir.Const); ok && cb.IsNull && cir.IsPointer(a.Type()) {
		b = cir.NullConst(a.Type())
	}
	// Comparing a pointer against literal 0 is a null check in C.
	if ca, ok := a.(*cir.Const); ok && !ca.IsNull && ca.Val == 0 && cir.IsPointer(b.Type()) {
		a = cir.NullConst(b.Type())
	}
	if cb, ok := b.(*cir.Const); ok && !cb.IsNull && cb.Val == 0 && cir.IsPointer(a.Type()) {
		b = cir.NullConst(a.Type())
	}
	return a, b
}

func cmpPred(op string) (cir.Pred, bool) {
	switch op {
	case "==":
		return cir.PredEQ, true
	case "!=":
		return cir.PredNE, true
	case "<":
		return cir.PredLT, true
	case "<=":
		return cir.PredLE, true
	case ">":
		return cir.PredGT, true
	case ">=":
		return cir.PredGE, true
	}
	return "", false
}

// ---- expressions ----

// lowerAddr lowers e as an lvalue, returning the address value.
func (lw *lowerer) lowerAddr(e Expr) cir.Value {
	switch x := e.(type) {
	case *Ident:
		if slot := lw.lookup(x.Name); slot != nil {
			return slot
		}
		if g, ok := lw.mod.Globals[x.Name]; ok {
			return g
		}
		lw.errorf(x.Pos, "undefined variable %s", x.Name)
		// Recover with a fresh slot so analysis can continue.
		slot := lw.b.Alloca(x.Name, cir.I64)
		lw.define(x.Name, slot)
		return slot
	case *Unary:
		if x.Op == "*" {
			return lw.lowerExpr(x.X)
		}
	case *Select:
		lw.at(x.Pos)
		var base cir.Value
		if x.Arrow {
			base = lw.lowerExpr(x.X)
		} else {
			base = lw.lowerAddr(x.X)
		}
		return lw.b.FieldAddr(x.Field, base, x.Field)
	case *Index:
		lw.at(x.Pos)
		idx := lw.lowerExpr(x.I)
		base := lw.arrayBase(x.X)
		return lw.b.IndexAddr("idx", base, idx)
	case *Cast:
		return lw.lowerAddr(x.X)
	}
	lw.errorf(e.exprPos(), "expression is not an lvalue")
	return lw.b.Alloca("badlv", cir.I64)
}

// arrayBase lowers the base of an indexing expression: arrays are used in
// place (their address), pointers are loaded.
func (lw *lowerer) arrayBase(e Expr) cir.Value {
	// If e is an identifier or field naming an array, use its address.
	t := lw.staticTypeOf(e)
	if _, isArr := t.(*cir.ArrayType); isArr {
		return lw.lowerAddr(e)
	}
	return lw.lowerExpr(e)
}

// staticTypeOf gives a best-effort static type for array-vs-pointer
// decisions; nil when unknown.
func (lw *lowerer) staticTypeOf(e Expr) cir.Type {
	switch x := e.(type) {
	case *Ident:
		if slot := lw.lookup(x.Name); slot != nil {
			return cir.Pointee(slot.Typ)
		}
		if g, ok := lw.mod.Globals[x.Name]; ok {
			return g.Elem
		}
	case *Select:
		var base cir.Type
		if x.Arrow {
			base = cir.Pointee(lw.staticTypeOf(x.X))
		} else {
			base = lw.staticTypeOf(x.X)
		}
		if st, ok := base.(*cir.StructType); ok {
			return st.FieldType(x.Field)
		}
	}
	return nil
}

// lowerExpr lowers e as an rvalue.
func (lw *lowerer) lowerExpr(e Expr) cir.Value {
	switch x := e.(type) {
	case *IntLit:
		return cir.IntConst(cir.I64, x.Val)
	case *StrLit:
		return cir.StrConst(x.Val)
	case *NullLit:
		return cir.NullConst(cir.PointerTo(cir.I8))
	case *Ident:
		if v, ok := lw.enums[x.Name]; ok {
			return cir.IntConst(cir.I64, v)
		}
		if slot := lw.lookup(x.Name); slot != nil {
			if _, isArr := cir.Pointee(slot.Typ).(*cir.ArrayType); isArr {
				lw.at(x.Pos)
				return lw.b.IndexAddr(x.Name+".decay", slot, cir.IntConst(cir.I64, 0))
			}
			lw.at(x.Pos)
			return lw.b.Load(x.Name, slot)
		}
		if g, ok := lw.mod.Globals[x.Name]; ok {
			if _, isArr := g.Elem.(*cir.ArrayType); isArr {
				lw.at(x.Pos)
				return lw.b.IndexAddr(x.Name+".decay", g, cir.IntConst(cir.I64, 0))
			}
			lw.at(x.Pos)
			return lw.b.Load(x.Name, g)
		}
		if _, ok := lw.mod.Funcs[x.Name]; ok {
			// A function name used as a value: record as address-taken and
			// produce an opaque constant (function-pointer calls are out of
			// scope, §7).
			lw.mod.AddressTaken[x.Name] = true
			return cir.IntConst(cir.I64, 0)
		}
		lw.errorf(x.Pos, "undefined identifier %s", x.Name)
		return cir.IntConst(cir.I64, 0)
	case *Unary:
		return lw.lowerUnary(x)
	case *Postfix:
		lw.at(x.Pos)
		addr := lw.lowerAddr(x.X)
		old := lw.b.Load("old", addr)
		op := cir.OpAdd
		if x.Op == "--" {
			op = cir.OpSub
		}
		nv := lw.b.BinOp("inc", op, old, cir.IntConst(cir.I64, 1))
		lw.b.Store(addr, nv)
		return old
	case *Binary:
		return lw.lowerBinary(x)
	case *Assign:
		return lw.lowerAssign(x)
	case *Cond:
		return lw.lowerTernary(x)
	case *CallExpr:
		return lw.lowerCall(x)
	case *Index, *Select:
		lw.at(e.exprPos())
		addr := lw.lowerAddr(e)
		return lw.b.Load("ld", addr)
	case *Cast:
		v := lw.lowerExpr(x.X)
		t := lw.resolveType(x.Type)
		lw.at(x.Pos)
		if c, ok := v.(*cir.Const); ok && c.IsNull && cir.IsPointer(t) {
			return cir.NullConst(t)
		}
		return lw.moveAs("cast", t, v)
	case *SizeofExpr:
		if x.IsType {
			return cir.IntConst(cir.I64, lw.sizeOf(lw.resolveType(x.Type)))
		}
		t := lw.staticTypeOf(x.X)
		if t == nil {
			t = cir.I64
		}
		return cir.IntConst(cir.I64, lw.sizeOf(t))
	}
	lw.errorf(e.exprPos(), "unsupported expression %T", e)
	return cir.IntConst(cir.I64, 0)
}

// moveAs emits a Move whose destination has an explicit type (used for
// casts, which must stay MOVEs so aliasing is preserved).
func (lw *lowerer) moveAs(name string, t cir.Type, src cir.Value) cir.Value {
	r := lw.fn.NewReg(name, t)
	in := &cir.Move{Dst: r, Src: src}
	r.Def = in
	lw.b.Blk.Append(in)
	return r
}

func (lw *lowerer) lowerUnary(x *Unary) cir.Value {
	switch x.Op {
	case "!":
		lw.at(x.Pos)
		v := lw.lowerExpr(x.X)
		var zero cir.Value = cir.IntConst(v.Type(), 0)
		if cir.IsPointer(v.Type()) {
			zero = cir.NullConst(v.Type())
		}
		return lw.b.Cmp("not", cir.PredEQ, v, zero)
	case "-":
		lw.at(x.Pos)
		v := lw.lowerExpr(x.X)
		return lw.b.BinOp("neg", cir.OpSub, cir.IntConst(v.Type(), 0), v)
	case "~":
		lw.at(x.Pos)
		v := lw.lowerExpr(x.X)
		return lw.b.BinOp("bnot", cir.OpXor, v, cir.IntConst(v.Type(), -1))
	case "*":
		lw.at(x.Pos)
		addr := lw.lowerExpr(x.X)
		return lw.b.Load("deref", addr)
	case "&":
		return lw.lowerAddr(x.X)
	case "++", "--":
		lw.at(x.Pos)
		addr := lw.lowerAddr(x.X)
		old := lw.b.Load("old", addr)
		op := cir.OpAdd
		if x.Op == "--" {
			op = cir.OpSub
		}
		nv := lw.b.BinOp("inc", op, old, cir.IntConst(cir.I64, 1))
		lw.b.Store(addr, nv)
		return nv
	}
	lw.errorf(x.Pos, "unsupported unary operator %s", x.Op)
	return cir.IntConst(cir.I64, 0)
}

func (lw *lowerer) lowerBinary(x *Binary) cir.Value {
	if x.Op == "&&" || x.Op == "||" {
		// Boolean value context: materialize through a temporary.
		lw.at(x.Pos)
		tmp := lw.b.Alloca("bool.tmp", cir.I64)
		yes := lw.fn.NewBlock("b.true")
		no := lw.fn.NewBlock("b.false")
		end := lw.fn.NewBlock("b.end")
		lw.lowerCond(x, yes, no)
		lw.b.SetBlock(yes)
		lw.b.Store(tmp, cir.IntConst(cir.I64, 1))
		lw.b.Br(end)
		lw.b.SetBlock(no)
		lw.b.Store(tmp, cir.IntConst(cir.I64, 0))
		lw.b.Br(end)
		lw.b.SetBlock(end)
		return lw.b.Load("bool", tmp)
	}
	if pred, ok := cmpPred(x.Op); ok {
		lw.at(x.Pos)
		a := lw.lowerExpr(x.X)
		b := lw.lowerExpr(x.Y)
		a, b = lw.unifyCmpOperands(a, b)
		return lw.b.Cmp("cmp", pred, a, b)
	}
	lw.at(x.Pos)
	a := lw.lowerExpr(x.X)
	b := lw.lowerExpr(x.Y)
	// Pointer arithmetic p+i / p-i lowers to address computation, keeping
	// the result a pointer for the alias analysis.
	if cir.IsPointer(a.Type()) && cir.IsInteger(b.Type()) && (x.Op == "+" || x.Op == "-") {
		idx := b
		if x.Op == "-" {
			idx = lw.b.BinOp("negidx", cir.OpSub, cir.IntConst(cir.I64, 0), b)
		}
		return lw.b.IndexAddr("ptradd", a, idx)
	}
	op, ok := binOpFor(x.Op)
	if !ok {
		lw.errorf(x.Pos, "unsupported binary operator %s", x.Op)
		return cir.IntConst(cir.I64, 0)
	}
	return lw.b.BinOp("bin", op, a, b)
}

func binOpFor(op string) (cir.BinaryOp, bool) {
	switch op {
	case "+":
		return cir.OpAdd, true
	case "-":
		return cir.OpSub, true
	case "*":
		return cir.OpMul, true
	case "/":
		return cir.OpDiv, true
	case "%":
		return cir.OpRem, true
	case "&":
		return cir.OpAnd, true
	case "|":
		return cir.OpOr, true
	case "^":
		return cir.OpXor, true
	case "<<":
		return cir.OpShl, true
	case ">>":
		return cir.OpShr, true
	}
	return "", false
}

func (lw *lowerer) lowerAssign(x *Assign) cir.Value {
	lw.at(x.Pos)
	addr := lw.lowerAddr(x.X)
	if x.Op == "=" {
		v := lw.lowerExpr(x.Y)
		if c, ok := v.(*cir.Const); ok && c.IsNull {
			if pt := cir.Pointee(addr.Type()); pt != nil && cir.IsPointer(pt) {
				v = cir.NullConst(pt)
			}
		}
		lw.at(x.Pos)
		lw.b.Store(addr, v)
		return v
	}
	old := lw.b.Load("old", addr)
	rhs := lw.lowerExpr(x.Y)
	op, ok := binOpFor(x.Op[:len(x.Op)-1])
	if !ok {
		lw.errorf(x.Pos, "unsupported compound assignment %s", x.Op)
		return old
	}
	lw.at(x.Pos)
	nv := lw.b.BinOp("cassign", op, old, rhs)
	lw.b.Store(addr, nv)
	return nv
}

func (lw *lowerer) lowerTernary(x *Cond) cir.Value {
	lw.at(x.Pos)
	tmp := lw.b.Alloca("cond.tmp", cir.I64)
	yes := lw.fn.NewBlock("t.true")
	no := lw.fn.NewBlock("t.false")
	end := lw.fn.NewBlock("t.end")
	lw.lowerCond(x.C, yes, no)
	lw.b.SetBlock(yes)
	tv := lw.lowerExpr(x.T)
	lw.b.Store(tmp, tv)
	lw.b.Br(end)
	lw.b.SetBlock(no)
	fv := lw.lowerExpr(x.F)
	lw.b.Store(tmp, fv)
	lw.b.Br(end)
	lw.b.SetBlock(end)
	return lw.b.Load("cond.val", tmp)
}

func (lw *lowerer) lowerCall(x *CallExpr) cir.Value {
	callee := lw.getOrDeclare(x.Fun, len(x.Args))
	var args []cir.Value
	for i, a := range x.Args {
		v := lw.lowerExpr(a)
		if c, ok := v.(*cir.Const); ok && c.IsNull && i < len(callee.Typ.Params) {
			if cir.IsPointer(callee.Typ.Params[i]) {
				v = cir.NullConst(callee.Typ.Params[i])
			}
		}
		args = append(args, v)
	}
	lw.at(x.Pos)
	res := callee.Typ.Result
	r := lw.b.Call(x.Fun, callee.Name, res, args...)
	if r == nil {
		return cir.IntConst(cir.I64, 0)
	}
	return r
}

// sizeOf implements a simple LP64 size model.
func (lw *lowerer) sizeOf(t cir.Type) int64 {
	switch tt := t.(type) {
	case *cir.IntType:
		if tt.Width <= 8 {
			return 1
		}
		return 8
	case *cir.PtrType:
		return 8
	case *cir.StructType:
		var n int64
		for _, f := range tt.Fields {
			n += lw.sizeOf(f.Type)
		}
		if n == 0 {
			n = 8
		}
		return n
	case *cir.ArrayType:
		return int64(tt.Len) * lw.sizeOf(tt.Elem)
	}
	return 8
}
