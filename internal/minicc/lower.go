package minicc

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"

	"repro/internal/cir"
	"repro/internal/par"
)

// LowerFile lowers a parsed file into mod, after the files already lowered
// into it: it declares the file's structs, globals and functions, then
// lowers its function bodies — LowerAll's two lowering passes, over one
// file.
func LowerFile(mod *cir.Module, f *File) error {
	fe := &frontend{mod: mod}
	d := fe.declare(f)
	for _, u := range d.units {
		fe.lowerBody(u, &fe.names)
	}
	return fe.finish([]*fileDecls{d})
}

// LowerAll lowers a set of sources (file name → text) into one module,
// assigns instruction IDs and verifies the result. Like the paper's P1,
// which compiles each file on its own and joins the results through a
// function-information database, it runs in four phases:
//
//  1. each file is parsed on its own, on a pool of GOMAXPROCS goroutines;
//  2. one sequential declaration pass, in sorted file order, declares every
//     file's enums, structs, globals and function signatures and renames
//     colliding statics;
//  3. function bodies are lowered on the pool against those frozen tables;
//     the functions they take the address of and the implicit declarations
//     of callees no file declares are then merged in file and body order;
//  4. instruction IDs are assigned module-wide, and each function is
//     verified on the pool.
//
// So a body sees the declarations of every file, not only of earlier ones.
// The module depends only on sources, never on GOMAXPROCS or scheduling.
// The error returned is the one lowering the files one after another
// reports: going through the files in sorted order, the first that fails
// gives its parse error, or else its first lowering error. Files after the
// first that fails to parse are not lowered.
func LowerAll(name string, sources map[string]string) (*cir.Module, error) {
	l, err := lowerAll(name, sources)
	return l.Mod, err
}

// LowerProgram is LowerAll for a program that will be edited: on success
// it also keeps the records Relower re-lowers edited files against.
func LowerProgram(name string, sources map[string]string) (*Lowered, error) {
	l, err := lowerAll(name, sources)
	if err != nil {
		return nil, err
	}
	return l, nil
}

func lowerAll(name string, sources map[string]string) (*Lowered, error) {
	mod := cir.NewModule(name)
	names, files, keys, parseErrs := parseFiles(sources)
	parsed := len(names)
	for i, err := range parseErrs {
		if err != nil {
			parsed = i
			break
		}
	}

	fe := &frontend{mod: mod}
	l := &Lowered{Mod: mod, files: make([]*fileDecls, parsed)}
	var units []*unit
	for i := range l.files {
		d := fe.declare(files[i])
		d.key = keys[i]
		l.files[i] = d
		units = append(units, d.units...)
		files[i] = nil // from here on only the units hold the bodies' ASTs
	}
	l.structs, l.addrTaken = maps.Clone(mod.Structs), maps.Clone(mod.AddressTaken)
	fe.lowerBodies(units)
	if err := fe.finish(l.files); err != nil {
		return l, err
	}
	if parsed < len(names) {
		return l, parseErrs[parsed]
	}

	mod.AssignGIDs()
	if err := verify(mod.SortedFuncs()); err != nil {
		return l, err
	}
	l.instrs, l.vids = mod.MaxGID(), mod.MaxVID() // AssignGIDs numbers densely
	l.bodyStructs = fe.bodyStructs
	release(l.files)
	return l, nil
}

// parseFiles parses sources on the pool, in sorted name order, and keys
// each file that parses. A worker takes all its files' ASTs from one set of
// slabs: every AST dies once the bodies are lowered, and a slab per worker
// leaves one chunk per node type part-empty, not one per file.
func parseFiles(sources map[string]string) (names []string, files []*File, keys []uint64, errs []error) {
	for n := range sources {
		names = append(names, n)
	}
	slices.Sort(names)
	files, keys, errs = make([]*File, len(names)), make([]uint64, len(names)), make([]error, len(names))
	ns := make([]nodes, runtime.GOMAXPROCS(0))
	par.For(len(names), len(ns), func(w, i int) {
		files[i], errs[i] = parse(names[i], sources[names[i]], &ns[w])
		if errs[i] == nil {
			keys[i] = declKey(files[i])
		}
	})
	return names, files, keys, errs
}

// verify verifies funcs on the pool and joins their errors in order.
func verify(funcs []*cir.Function) error {
	verrs := make([]error, len(funcs))
	par.For(len(funcs), runtime.GOMAXPROCS(0), func(_, i int) { verrs[i] = cir.VerifyFunction(funcs[i]) })
	if err := errors.Join(verrs...); err != nil {
		return fmt.Errorf("lowered module fails verification: %w", err)
	}
	return nil
}

// frontend holds what the lowering passes share across files.
type frontend struct {
	mod *cir.Module

	// bodyStructs holds the struct types that only function bodies name.
	// Bodies lower concurrently and so may not write mod.Structs; finish
	// adds these to it.
	mu          sync.Mutex
	bodyStructs map[string]*cir.StructType

	// names names the blocks the sequential passes make.
	names blockNames
}

// fileDecls is what the declaration pass records for one file.
type fileDecls struct {
	name    string
	lines   int
	key     uint64 // declKey of the parsed file
	ctx     uint64 // the parsed file's context hash (see hashSpans)
	enums   map[string]int64
	statics map[string]static // source name -> renamed static
	errs    []error           // reported while declaring the file's functions
	// declared lists the functions the file declared first, in order, and
	// declFD the index in the file's Funcs of the declaration that did.
	declared []string
	declFD   []int
	units    []*unit // the file's function bodies, in source order
}

// static is a file-static function renamed because an earlier definition
// has its name. Calls in the file's bodies from index from on use the new
// name.
type static struct {
	name string
	from int
}

// unit is one function body: claimed by the declaration pass, lowered on
// the pool, merged by finish.
type unit struct {
	file *fileDecls
	idx  int // index among the file's bodies
	fd   *FuncDecl
	span uint64        // fd's span hash (see hashSpans)
	fn   *cir.Function // nil for a duplicate body, which is skipped
	// created is set when fn was made for this body (a static defined twice
	// in one file); finish then gives fn its place in definition order.
	created   bool
	errs      []error // nil entries are placeholders finish resolves
	uses      []use
	addrTaken []string
	structs   []string // tags of the struct types only bodies name
}

// use is a body's reference to a function no declaration names. A call
// declares the callee implicitly, as pre-C99 C does; an identifier is an
// address-taken function if a call before it has done so, and an error
// otherwise. Which calls come first is known only in file and body order,
// so finish decides.
type use struct {
	name  string
	nargs int      // the call's argument count; -1 for an identifier
	pos   Position // an identifier's position
	err   int      // an identifier's error placeholder in unit.errs
}

// implicitType is the type a call gives a callee nothing declares; the
// declaration finish creates has one int parameter per argument.
var implicitType = &cir.FuncType{Result: cir.I64, Variadic: true}

type lowerer struct {
	fe   *frontend
	mod  *cir.Module
	file *fileDecls
	unit *unit // the body being lowered; nil in the declaration pass
	errs []error
	// names is the block-name cache of the worker running the lowerer.
	names *blockNames

	// per-function state
	fn      *cir.Function
	b       *cir.Builder
	vars    []binding // the locals in scope, outermost first
	scopes  []int     // where each open scope's bindings start in vars
	labels  map[string]*cir.Block
	defined map[string]bool // labels that have a LabelStmt
	gotos   []*GotoStmt     // in source order
	// breaks is the stack of break targets (loops and switches); conts is
	// the stack of continue targets (loops only).
	breaks []*cir.Block
	conts  []*cir.Block
}

// binding is a local variable's name and stack slot.
type binding struct {
	name string
	addr *cir.Register
}

func (lw *lowerer) errorf(pos Position, format string, args ...any) {
	lw.errs = append(lw.errs, &Error{File: lw.file.name, Line: int(pos.Line), Col: int(pos.Col), Msg: fmt.Sprintf(format, args...)})
}

// declare is the declaration pass over one file. It leaves every function
// with a body in f claimed (see claimBody) and ready to lower.
func (fe *frontend) declare(f *File) *fileDecls {
	d := &fileDecls{name: f.Name, lines: f.Lines, ctx: f.ctx, enums: fileEnums(f), statics: make(map[string]static)}
	lw := &lowerer{fe: fe, mod: fe.mod, file: d, names: &fe.names}
	for _, sd := range f.Structs {
		lw.lowerStruct(sd)
	}
	for _, g := range f.Globals {
		lw.lowerGlobal(g)
	}
	// Declare all functions first so forward calls type-resolve.
	for i, fd := range f.Funcs {
		lw.declareFunc(fd, i)
	}
	d.errs = lw.errs
	for _, fd := range f.Funcs {
		if fd.Body != nil {
			d.units = append(d.units, lw.claimBody(fd, len(d.units)))
		}
	}
	return d
}

// fileEnums returns f's enumerator constants by name.
func fileEnums(f *File) map[string]int64 {
	enums := make(map[string]int64)
	for _, e := range f.Enums {
		for i, n := range e.Names {
			enums[n] = e.Vals[i]
		}
	}
	return enums
}

// lowerBodies lowers units' bodies on the worker pool, each worker naming
// blocks from its own blockNames.
func (fe *frontend) lowerBodies(units []*unit) {
	bn := make([]blockNames, runtime.GOMAXPROCS(0))
	par.For(len(units), len(bn), func(w, i int) { fe.lowerBody(units[i], &bn[w]) })
}

// lowerBody lowers u's body into its function, naming its blocks from
// names. It reads the module's tables and writes only u, u.fn and names,
// so bodies lower concurrently, each worker with its own names.
func (fe *frontend) lowerBody(u *unit, names *blockNames) {
	if u.fn == nil {
		return
	}
	lw := &lowerer{fe: fe, mod: fe.mod, file: u.file, unit: u, errs: u.errs, names: names}
	lw.lowerFunc(u.fd)
	u.errs = lw.errs
	u.fd = nil // release the body's AST while other bodies lower
}

// finish merges the lowered bodies into the module in file and body order,
// which is the order lowering one file after another would produce: each
// file's declared functions, then per body the function it created and the
// implicit declarations its calls made, enter the definition order. It
// returns the first error in that order. It writes only the module, never
// a unit, so Relower runs it over records an earlier module still uses.
func (fe *frontend) finish(decls []*fileDecls) error {
	mod := fe.mod
	var first error
	for _, d := range decls {
		mod.Files = append(mod.Files, d.name)
		mod.SourceLines += d.lines
		for _, name := range d.declared {
			mod.AddFunction(mod.Funcs[name])
		}
		if first == nil && len(d.errs) > 0 {
			first = d.errs[0]
		}
		for _, u := range d.units {
			if u.created {
				mod.AddFunction(u.fn)
			}
			// undefined is the body's first identifier that names nothing;
			// its error goes in placeholder undefAt of u.errs.
			var undefined error
			undefAt := len(u.errs)
			for _, use := range u.uses {
				_, declared := mod.Funcs[use.name]
				switch {
				case use.nargs >= 0 && !declared:
					ft := &cir.FuncType{Result: cir.I64, Variadic: true}
					for range use.nargs {
						ft.Params = append(ft.Params, cir.I64)
					}
					mod.NewFunction(use.name, ft)
				case use.nargs < 0 && declared:
					mod.AddressTaken[use.name] = true
				case use.nargs < 0 && undefined == nil:
					undefined = &Error{File: d.name, Line: int(use.pos.Line), Col: int(use.pos.Col),
						Msg: "undefined identifier " + use.name}
					undefAt = min(use.err, undefAt)
				}
			}
			for _, name := range u.addrTaken {
				mod.AddressTaken[name] = true
			}
			for _, tag := range u.structs {
				mod.AddStruct(fe.bodyStructs[tag])
			}
			for _, err := range u.errs[:undefAt] {
				if first == nil && err != nil {
					first = err
				}
			}
			if first == nil {
				first = undefined
			}
		}
	}
	return first
}

// resolveStruct returns (creating if needed) the nominal struct type.
func (lw *lowerer) resolveStruct(tag string) *cir.StructType {
	if st, ok := lw.mod.Structs[tag]; ok {
		return st
	}
	if lw.unit != nil {
		if !slices.Contains(lw.unit.structs, tag) {
			lw.unit.structs = append(lw.unit.structs, tag)
		}
		return lw.fe.bodyStruct(tag)
	}
	st := &cir.StructType{Name: tag}
	lw.mod.AddStruct(st)
	return st
}

// bodyStruct returns the struct type a body names that the declaration
// pass did not create, making one per tag however many bodies name it.
func (fe *frontend) bodyStruct(tag string) *cir.StructType {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	st, ok := fe.bodyStructs[tag]
	if !ok {
		if fe.bodyStructs == nil {
			fe.bodyStructs = make(map[string]*cir.StructType)
		}
		st = &cir.StructType{Name: tag}
		fe.bodyStructs[tag] = st
	}
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
	st.Fields = slices.Grow(st.Fields, len(sd.Fields))
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
// renaming a static definition whose name an earlier one has; from is the
// first body index the new name applies to.
func (lw *lowerer) moduleName(fd *FuncDecl, from int) string {
	if s, ok := lw.file.statics[fd.Name]; ok {
		return s.name
	}
	name := fd.Name
	if prev, ok := lw.mod.Funcs[name]; ok && !prev.IsDecl() && fd.Body != nil {
		if fd.Static {
			name = fd.Name + "@" + lw.file.name
			lw.file.statics[fd.Name] = static{name: name, from: from}
		} else {
			lw.errorf(fd.Pos, "redefinition of function %s", fd.Name)
		}
	}
	return name
}

func (lw *lowerer) funcType(fd *FuncDecl) *cir.FuncType {
	ft := &cir.FuncType{Result: lw.resolveType(fd.Result), Variadic: fd.Variadic}
	ft.Params = slices.Grow(ft.Params, len(fd.Params))
	for _, p := range fd.Params {
		ft.Params = append(ft.Params, lw.resolveType(p.Type))
	}
	return ft
}

// declareFunc declares fd, the i-th function of its file, unless its
// module name is taken. Functions enter mod.Funcs here so later files and
// every body resolve them; finish gives them their place in definition
// order.
func (lw *lowerer) declareFunc(fd *FuncDecl, i int) {
	name := lw.moduleName(fd, 0)
	if _, ok := lw.mod.Funcs[name]; ok {
		return
	}
	lw.mod.Funcs[name] = &cir.Function{Name: name, Typ: lw.funcType(fd),
		Pos: funcPos(lw.file.name, fd), File: lw.file.name, Static: fd.Static}
	lw.file.declared = append(lw.file.declared, name)
	lw.file.declFD = append(lw.file.declFD, i)
}

// claimBody gives the body of fd, the idx-th in its file, its function. The
// first definition of a module name claims it; a later one is renamed if
// static (moduleName) and skipped if not. Claiming sets the function's
// signature and position to the definition's, before any body that calls
// it is lowered, and gives it its entry block, so IsDecl reports it defined
// from here on.
func (lw *lowerer) claimBody(fd *FuncDecl, idx int) *unit {
	u := &unit{file: lw.file, idx: idx, fd: fd, span: fd.span}
	lw.errs = nil
	name := lw.moduleName(fd, idx)
	fn := lw.mod.Funcs[name]
	switch {
	case fn == nil:
		fn = &cir.Function{Name: name}
		lw.mod.Funcs[name] = fn
		u.created = true
	case !fn.IsDecl():
		// Either an error was reported, or the same (non-static) function
		// appears twice; skip the duplicate body.
		u.errs = lw.errs
		return u
	}
	fn.Typ = lw.funcType(fd)
	fn.Pos = funcPos(lw.file.name, fd)
	fn.File = lw.file.name
	fn.Static = fd.Static
	lw.names.newBlock(fn, bkEntry)
	u.fn = fn
	u.errs = lw.errs
	return u
}

// callee resolves a call target to its module name and type. A name nothing
// declares is recorded for finish to declare implicitly; meanwhile the call
// gets implicitType, which, like the int parameters of that declaration,
// retypes no NULL argument.
func (lw *lowerer) callee(name string, nargs int) (string, *cir.FuncType) {
	if s, ok := lw.file.statics[name]; ok && s.from <= lw.unit.idx {
		name = s.name
	}
	if fn, ok := lw.mod.Funcs[name]; ok {
		return name, fn.Typ
	}
	lw.unit.uses = append(lw.unit.uses, use{name: name, nargs: nargs})
	return name, implicitType
}

// ---- function bodies ----

// pushScope opens a scope. Scopes are one stack of bindings: a body has
// few locals, so a lookup scans them from the most recent one out, and a
// name bound twice in a scope resolves to its redefinition.
func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, len(lw.vars)) }

func (lw *lowerer) popScope() {
	lw.vars = lw.vars[:lw.scopes[len(lw.scopes)-1]]
	lw.scopes = lw.scopes[:len(lw.scopes)-1]
}

func (lw *lowerer) define(name string, addr *cir.Register) {
	lw.vars = append(lw.vars, binding{name, addr})
}

func (lw *lowerer) lookup(name string) *cir.Register {
	for i := len(lw.vars) - 1; i >= 0; i-- {
		if lw.vars[i].name == name {
			return lw.vars[i].addr
		}
	}
	return nil
}

func (lw *lowerer) at(pos Position) { lw.b.AtLine(lw.file.name, int(pos.Line)) }

func (lw *lowerer) lowerFunc(fd *FuncDecl) {
	fn := lw.unit.fn
	lw.fn = fn
	lw.b = cir.NewBuilder(fn)
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
	// Report each undefined label once, at its first goto.
	for _, g := range lw.gotos {
		if !lw.defined[g.Label] {
			lw.errorf(g.Pos, "goto undefined label %s", g.Label)
			lw.defined[g.Label] = true
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
	if res := lw.fn.Typ.Result; !res.Equal(cir.Void) {
		lw.b.Ret(lw.zero(res))
	} else {
		lw.b.Ret(nil)
	}
}

// zero returns the zero constant of type t: NULL for a pointer.
func (lw *lowerer) zero(t cir.Type) *cir.Const {
	if cir.IsPointer(t) {
		return lw.fn.NullConst(t)
	}
	return lw.fn.IntConst(t, 0)
}

// newBlock appends a block of kind k to the function being lowered.
func (lw *lowerer) newBlock(k blockKind) *cir.Block { return lw.names.newBlock(lw.fn, k) }

func (lw *lowerer) labelBlock(name string) *cir.Block {
	if blk, ok := lw.labels[name]; ok {
		return blk
	} else if lw.labels == nil {
		lw.labels, lw.defined = make(map[string]*cir.Block), make(map[string]bool)
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
		lw.gotos = append(lw.gotos, st)
		lw.b.Br(lw.labelBlock(st.Label))
	case *LabelStmt:
		blk := lw.labelBlock(st.Name)
		lw.defined[st.Name] = true
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
		lw.b.Call("", "memset", cir.Void, slot, lw.fn.IntConst(cir.I64, 0),
			lw.fn.IntConst(cir.I64, lw.sizeOf(t)))
	case d.Init != nil:
		v := lw.lowerExpr(d.Init)
		lw.b.Store(slot, v)
	}
}

func (lw *lowerer) lowerIf(st *IfStmt) {
	then := lw.newBlock(bkIfThen)
	end := lw.newBlock(bkIfEnd)
	els := end
	if st.Else != nil {
		els = lw.newBlock(bkIfElse)
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
	head := lw.newBlock(bkWhileHead)
	body := lw.newBlock(bkWhileBody)
	end := lw.newBlock(bkWhileEnd)
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
	lw.loopBody(st.Body, end, head)
	lw.b.Br(head)
	lw.b.SetBlock(end)
}

func (lw *lowerer) lowerFor(st *ForStmt) {
	lw.pushScope()
	if st.Init != nil {
		lw.lowerStmt(st.Init)
	}
	head := lw.newBlock(bkForHead)
	body := lw.newBlock(bkForBody)
	post := lw.newBlock(bkForPost)
	end := lw.newBlock(bkForEnd)
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
	lw.loopBody(st.Body, end, post)
	lw.b.Br(post)
	lw.b.SetBlock(post)
	if st.Post != nil {
		lw.lowerExpr(st.Post)
	}
	lw.b.Br(head)
	lw.b.SetBlock(end)
	lw.popScope()
}

// loopBody lowers a loop's body, with brk and cont the targets of its
// break and continue statements.
func (lw *lowerer) loopBody(body Stmt, brk, cont *cir.Block) {
	lw.breaks, lw.conts = append(lw.breaks, brk), append(lw.conts, cont)
	lw.lowerStmt(body)
	lw.breaks, lw.conts = lw.breaks[:len(lw.breaks)-1], lw.conts[:len(lw.conts)-1]
}

func (lw *lowerer) lowerSwitch(st *SwitchStmt) {
	lw.at(st.Pos)
	tag := lw.lowerExpr(st.Tag)
	end := lw.newBlock(bkSwitchEnd)

	// Create a body block per clause so fallthrough works.
	bodies := make([]*cir.Block, len(st.Cases))
	for i := range st.Cases {
		bodies[i] = lw.newBlock(bkSwitchCase)
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
		next := lw.newBlock(bkSwitchTest)
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
			mid := lw.newBlock(bkAndRHS)
			lw.lowerCond(x.X, mid, no)
			lw.b.SetBlock(mid)
			lw.lowerCond(x.Y, yes, no)
			return
		case "||":
			mid := lw.newBlock(bkOrRHS)
			lw.lowerCond(x.X, yes, mid)
			lw.b.SetBlock(mid)
			lw.lowerCond(x.Y, yes, no)
			return
		}
		if pred, ok := cmpPreds[x.Op]; ok {
			lw.b.CondBr(lw.compare("cond", pred, x), yes, no)
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
	c := lw.b.Cmp("cond", cir.PredNE, v, lw.zero(v.Type()))
	lw.b.CondBr(c, yes, no)
}

// compare lowers the comparison x, of predicate pred, to a register named
// name.
func (lw *lowerer) compare(name string, pred cir.Pred, x *Binary) *cir.Register {
	lw.at(x.Pos)
	a, b := lw.unifyCmpOperands(lw.lowerExpr(x.X), lw.lowerExpr(x.Y))
	return lw.b.Cmp(name, pred, a, b)
}

// unifyCmpOperands retypes an untyped NULL against the other pointer operand
// so comparisons read naturally.
func (lw *lowerer) unifyCmpOperands(a, b cir.Value) (cir.Value, cir.Value) {
	if ca, ok := a.(*cir.Const); ok && ca.IsNull && cir.IsPointer(b.Type()) {
		a = lw.fn.NullConst(b.Type())
	}
	if cb, ok := b.(*cir.Const); ok && cb.IsNull && cir.IsPointer(a.Type()) {
		b = lw.fn.NullConst(a.Type())
	}
	// Comparing a pointer against literal 0 is a null check in C.
	if ca, ok := a.(*cir.Const); ok && !ca.IsNull && ca.Val == 0 && cir.IsPointer(b.Type()) {
		a = lw.fn.NullConst(b.Type())
	}
	if cb, ok := b.(*cir.Const); ok && !cb.IsNull && cb.Val == 0 && cir.IsPointer(a.Type()) {
		b = lw.fn.NullConst(a.Type())
	}
	return a, b
}

// cmpPreds maps the comparison operators to their predicates.
var cmpPreds = map[string]cir.Pred{
	"==": cir.PredEQ, "!=": cir.PredNE, "<": cir.PredLT, "<=": cir.PredLE, ">": cir.PredGT, ">=": cir.PredGE,
}

// ---- expressions ----

// lowerAddr lowers e as an lvalue, returning the address value.
func (lw *lowerer) lowerAddr(e Expr) cir.Value {
	switch x := e.(type) {
	case *Ident:
		if addr, _ := lw.variable(x.Name); addr != nil {
			return addr
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

// variable returns the address of the local or global variable name and
// the type stored there, or nils when no variable has the name.
func (lw *lowerer) variable(name string) (cir.Value, cir.Type) {
	if slot := lw.lookup(name); slot != nil {
		return slot, cir.Pointee(slot.Typ)
	}
	if g, ok := lw.mod.Globals[name]; ok {
		return g, g.Elem
	}
	return nil, nil
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
		_, elem := lw.variable(x.Name)
		return elem
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
		return lw.fn.IntConst(cir.I64, x.Val)
	case *StrLit:
		return cir.StrConst(x.Val)
	case *NullLit:
		return lw.fn.NullConst(cir.PointerTo(cir.I8))
	case *Ident:
		if v, ok := lw.file.enums[x.Name]; ok {
			return lw.fn.IntConst(cir.I64, v)
		}
		if addr, elem := lw.variable(x.Name); addr != nil {
			lw.at(x.Pos)
			if _, isArr := elem.(*cir.ArrayType); isArr {
				return lw.b.IndexAddr(x.Name+".decay", addr, lw.fn.IntConst(cir.I64, 0))
			}
			return lw.b.Load(x.Name, addr)
		}
		if _, ok := lw.mod.Funcs[x.Name]; ok {
			// A function name used as a value: record as address-taken and
			// produce an opaque constant (function-pointer calls are out of
			// scope, §7).
			lw.unit.addrTaken = append(lw.unit.addrTaken, x.Name)
			return lw.fn.IntConst(cir.I64, 0)
		}
		// Either a function a call in an earlier body declared, or
		// undefined: finish decides and fills the error slot if need be.
		lw.unit.uses = append(lw.unit.uses, use{name: x.Name, nargs: -1, pos: x.Pos, err: len(lw.errs)})
		lw.errs = append(lw.errs, nil)
		return lw.fn.IntConst(cir.I64, 0)
	case *Unary:
		return lw.lowerUnary(x)
	case *Postfix:
		return lw.incDec(x.Pos, x.Op, x.X, true)
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
			return lw.fn.NullConst(t)
		}
		return lw.moveAs("cast", t, v)
	case *SizeofExpr:
		if x.IsType {
			return lw.fn.IntConst(cir.I64, lw.sizeOf(lw.resolveType(x.Type)))
		}
		t := lw.staticTypeOf(x.X)
		if t == nil {
			t = cir.I64
		}
		return lw.fn.IntConst(cir.I64, lw.sizeOf(t))
	}
	lw.errorf(e.exprPos(), "unsupported expression %T", e)
	return lw.fn.IntConst(cir.I64, 0)
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
		return lw.b.Cmp("not", cir.PredEQ, v, lw.zero(v.Type()))
	case "-":
		lw.at(x.Pos)
		v := lw.lowerExpr(x.X)
		return lw.b.BinOp("neg", cir.OpSub, lw.fn.IntConst(v.Type(), 0), v)
	case "~":
		lw.at(x.Pos)
		v := lw.lowerExpr(x.X)
		return lw.b.BinOp("bnot", cir.OpXor, v, lw.fn.IntConst(v.Type(), -1))
	case "*":
		lw.at(x.Pos)
		addr := lw.lowerExpr(x.X)
		return lw.b.Load("deref", addr)
	case "&":
		return lw.lowerAddr(x.X)
	case "++", "--":
		return lw.incDec(x.Pos, x.Op, x.X, false)
	}
	lw.errorf(x.Pos, "unsupported unary operator %s", x.Op)
	return lw.fn.IntConst(cir.I64, 0)
}

// incDec lowers x++ or x-- (post) or ++x or --x, as op says.
func (lw *lowerer) incDec(pos Position, op string, x Expr, post bool) cir.Value {
	lw.at(pos)
	addr := lw.lowerAddr(x)
	old := lw.b.Load("old", addr)
	bop := cir.OpAdd
	if op == "--" {
		bop = cir.OpSub
	}
	nv := lw.b.BinOp("inc", bop, old, lw.fn.IntConst(cir.I64, 1))
	lw.b.Store(addr, nv)
	if post {
		return old
	}
	return nv
}

func (lw *lowerer) lowerBinary(x *Binary) cir.Value {
	if x.Op == "&&" || x.Op == "||" {
		// Boolean value context: materialize through a temporary.
		lw.at(x.Pos)
		tmp := lw.b.Alloca("bool.tmp", cir.I64)
		yes := lw.newBlock(bkBoolTrue)
		no := lw.newBlock(bkBoolFalse)
		end := lw.newBlock(bkBoolEnd)
		lw.lowerCond(x, yes, no)
		lw.b.SetBlock(yes)
		lw.b.Store(tmp, lw.fn.IntConst(cir.I64, 1))
		lw.b.Br(end)
		lw.b.SetBlock(no)
		lw.b.Store(tmp, lw.fn.IntConst(cir.I64, 0))
		lw.b.Br(end)
		lw.b.SetBlock(end)
		return lw.b.Load("bool", tmp)
	}
	if pred, ok := cmpPreds[x.Op]; ok {
		return lw.compare("cmp", pred, x)
	}
	lw.at(x.Pos)
	a := lw.lowerExpr(x.X)
	b := lw.lowerExpr(x.Y)
	// Pointer arithmetic p+i / p-i lowers to address computation, keeping
	// the result a pointer for the alias analysis.
	if cir.IsPointer(a.Type()) && cir.IsInteger(b.Type()) && (x.Op == "+" || x.Op == "-") {
		idx := b
		if x.Op == "-" {
			idx = lw.b.BinOp("negidx", cir.OpSub, lw.fn.IntConst(cir.I64, 0), b)
		}
		return lw.b.IndexAddr("ptradd", a, idx)
	}
	op, ok := binOps[x.Op]
	if !ok {
		lw.errorf(x.Pos, "unsupported binary operator %s", x.Op)
		return lw.fn.IntConst(cir.I64, 0)
	}
	return lw.b.BinOp("bin", op, a, b)
}

// binOps maps the arithmetic and bitwise operators to their CIR operators.
var binOps = map[string]cir.BinaryOp{
	"+": cir.OpAdd, "-": cir.OpSub, "*": cir.OpMul, "/": cir.OpDiv, "%": cir.OpRem,
	"&": cir.OpAnd, "|": cir.OpOr, "^": cir.OpXor, "<<": cir.OpShl, ">>": cir.OpShr,
}

func (lw *lowerer) lowerAssign(x *Assign) cir.Value {
	lw.at(x.Pos)
	addr := lw.lowerAddr(x.X)
	if x.Op == "=" {
		v := lw.lowerExpr(x.Y)
		if c, ok := v.(*cir.Const); ok && c.IsNull {
			if pt := cir.Pointee(addr.Type()); pt != nil && cir.IsPointer(pt) {
				v = lw.fn.NullConst(pt)
			}
		}
		lw.at(x.Pos)
		lw.b.Store(addr, v)
		return v
	}
	old := lw.b.Load("old", addr)
	rhs := lw.lowerExpr(x.Y)
	op, ok := binOps[x.Op[:len(x.Op)-1]]
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
	yes := lw.newBlock(bkTernaryTrue)
	no := lw.newBlock(bkTernaryFalse)
	end := lw.newBlock(bkTernaryEnd)
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
	callee, ft := lw.callee(x.Fun, len(x.Args))
	args := slices.Grow([]cir.Value(nil), len(x.Args))
	for i, a := range x.Args {
		v := lw.lowerExpr(a)
		if c, ok := v.(*cir.Const); ok && c.IsNull && i < len(ft.Params) {
			if cir.IsPointer(ft.Params[i]) {
				v = lw.fn.NullConst(ft.Params[i])
			}
		}
		args = append(args, v)
	}
	lw.at(x.Pos)
	r := lw.b.Call(x.Fun, callee, ft.Result, args...)
	if r == nil {
		return lw.fn.IntConst(cir.I64, 0)
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
