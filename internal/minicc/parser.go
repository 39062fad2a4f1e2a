package minicc

import (
	"fmt"
	"strings"

	"repro/internal/slab"
)

// Parser builds an AST from tokens: a recursive-descent parser with
// precedence climbing for binary operators. It lexes as it parses, keeping
// only its lookahead, compares token IDs, and slices a token's text out of
// the source only where a rule keeps a name.
type Parser struct {
	file      string
	lx        lexer   // over the preprocessed source
	look      []Token // look[head] is the current token, then the lookahead
	head, pos int     // pos counts the tokens consumed
	errs      []error
	typedefs  map[string]TypeExpr
	nodes     *nodes
}

// Parse parses one mini-C translation unit. The source is macro-expanded
// first (see Preprocess); line numbers are preserved.
func Parse(file, src string) (*File, error) { return parse(file, src, new(nodes)) }

// parse is Parse with the AST slabs of ns (see parseFiles).
func parse(file, src string, ns *nodes) (*File, error) {
	text := Preprocess(src)
	p := &Parser{file: file, lx: lexer{file: file, src: text, line: 1},
		typedefs: make(map[string]TypeExpr), nodes: ns}
	p.look = append(ns.look[:0], p.lx.next())
	f := p.parseFile()
	ns.look = p.look
	f.Lines = strings.Count(src, "\n") + 1
	// Lexical errors come first, as if the file were lexed before parsing.
	if errs := append(p.lx.errs, p.errs...); len(errs) > 0 {
		return f, errs[0]
	}
	return f, nil
}

func (p *Parser) cur() Token { return p.look[p.head] }
func (p *Parser) next() Token {
	t := p.look[p.head]
	if t.Kind != EOF {
		p.pos++
		if p.head++; p.head == len(p.look) {
			p.look, p.head = append(p.look[:0], p.lx.next()), 0
		}
	}
	return t
}

// peekN returns the token n after the current one (EOF past the end).
func (p *Parser) peekN(n int) Token {
	for p.head+n >= len(p.look) {
		p.look = append(p.look, p.lx.next())
	}
	return p.look[p.head+n]
}

// name consumes the current token and returns its text: an identifier
// the AST keeps.
func (p *Parser) name() string { return p.next().Text(p.lx.src) }

// describe renders t for a diagnostic.
func (p *Parser) describe(t Token) string {
	if t.Kind == EOF {
		return "<eof>"
	}
	return fmt.Sprintf("%q", t.Text(p.lx.src))
}

func (p *Parser) at(id tokID) bool { return p.look[p.head].ID == id }

func (p *Parser) accept(id tokID) bool {
	if p.at(id) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(id tokID) Token {
	if p.at(id) {
		return p.next()
	}
	p.errorf("expected %q, found %s", idText[id], p.describe(p.cur()))
	return p.cur()
}

func (p *Parser) errorf(format string, args ...any) {
	t := p.cur()
	p.errs = append(p.errs, &Error{File: p.file, Line: int(t.Line), Col: int(t.Col), Msg: fmt.Sprintf(format, args...)})
	// Simple recovery: skip the offending token so parsing can continue.
	p.next()
}

func (p *Parser) position() Position {
	return Position{Line: p.look[p.head].Line, Col: p.look[p.head].Col}
}

// isTypeQualifier reports the qualifiers that may prefix a type and are
// ignored.
func isTypeQualifier(id tokID) bool { return id >= kwUnsigned && id <= kwInline }

func isBaseType(id tokID) bool { return id >= kwInt && id <= kwVoid }

func (p *Parser) skipQualifiers() {
	for isTypeQualifier(p.cur().ID) {
		p.next()
	}
}

// startsType reports whether the token stream at offset n begins a type.
func (p *Parser) startsType(n int) bool {
	t := p.peekN(n)
	for isTypeQualifier(t.ID) {
		n++
		t = p.peekN(n)
	}
	if isBaseType(t.ID) || t.ID == kwStruct {
		return true
	}
	if t.Kind == IDENT {
		_, ok := p.typedefs[t.Text(p.lx.src)]
		return ok
	}
	return false
}

// parseTypePrefix parses qualifiers, a base type name and leading '*'s
// (array suffixes belong to declarators and are parsed by callers).
func (p *Parser) parseTypePrefix() TypeExpr {
	p.skipQualifiers()
	var te TypeExpr
	switch {
	case p.accept(kwStruct):
		te.IsStruct = true
		if p.cur().Kind == IDENT {
			te.Base = p.name()
		} else {
			p.errorf("expected struct tag")
		}
	case isBaseType(p.cur().ID):
		te.Base = idText[p.next().ID]
		// Swallow multi-word types like "long long", "unsigned int".
		for isBaseType(p.cur().ID) {
			p.next()
		}
	case p.cur().Kind == IDENT:
		if td, ok := p.typedefs[p.cur().Text(p.lx.src)]; ok {
			te = td
			p.next()
		} else {
			p.errorf("expected type, found %s", p.describe(p.cur()))
		}
	default:
		p.errorf("expected type, found %s", p.describe(p.cur()))
	}
	p.skipQualifiers()
	for p.accept('*') {
		te.Ptr++
		p.skipQualifiers()
	}
	return te
}

// parseFile parses the whole translation unit.
func (p *Parser) parseFile() *File {
	f := &File{Name: p.file}
	for p.cur().Kind != EOF {
		start := p.pos
		switch {
		case p.at(kwTypedef):
			p.parseTypedef(f)
		case p.at(kwEnum):
			f.Enums = append(f.Enums, p.parseEnum())
		case p.at(kwStruct) && p.peekN(2).ID == '{':
			f.Structs = append(f.Structs, p.parseStructDecl())
		default:
			nerr := len(p.errs)
			p.parseTopLevelDecl(f)
			if len(p.errs) > nerr {
				p.syncTopLevel()
			}
		}
		if p.pos == start { // no progress: skip a token to avoid livelock
			p.next()
		}
	}
	return f
}

// syncTopLevel skips tokens until after a top-level ';' or a balanced '}',
// the usual panic-mode recovery points for C translation units.
func (p *Parser) syncTopLevel() {
	depth := 0
	for p.cur().Kind != EOF {
		switch p.cur().ID {
		case '{':
			depth++
		case '}':
			depth--
			if depth <= 0 {
				p.next()
				return
			}
		case ';':
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

func (p *Parser) parseTypedef(f *File) {
	p.expect(kwTypedef)
	if p.at(kwStruct) && p.peekN(2).ID == '{' {
		// typedef struct tag { ... } name;
		st := p.parseStructDeclNoSemi()
		f.Structs = append(f.Structs, st)
		if p.cur().Kind == IDENT {
			p.typedefs[p.name()] = TypeExpr{Base: st.Name, IsStruct: true}
		}
		p.expect(';')
		return
	}
	te := p.parseTypePrefix()
	if p.cur().Kind == IDENT {
		p.typedefs[p.name()] = te
	} else {
		p.errorf("expected typedef name")
	}
	p.expect(';')
}

func (p *Parser) parseEnum() *EnumDecl {
	pos := p.position()
	p.expect(kwEnum)
	if p.cur().Kind == IDENT {
		p.next() // optional tag
	}
	e := &EnumDecl{Pos: pos}
	p.expect('{')
	val := int64(0)
	for !p.at('}') && p.cur().Kind != EOF {
		if p.cur().Kind != IDENT {
			p.errorf("expected enumerator name")
			break
		}
		name := p.name()
		if p.accept('=') {
			if p.cur().Kind == INT {
				val = p.next().Val
			} else if p.accept('-') && p.cur().Kind == INT {
				val = -p.next().Val
			}
		}
		e.Names = append(e.Names, name)
		e.Vals = append(e.Vals, val)
		val++
		if !p.accept(',') {
			break
		}
	}
	p.expect('}')
	p.expect(';')
	return e
}

func (p *Parser) parseStructDecl() *StructDecl {
	st := p.parseStructDeclNoSemi()
	p.expect(';')
	return st
}

func (p *Parser) parseStructDeclNoSemi() *StructDecl {
	pos := p.position()
	p.expect(kwStruct)
	st := &StructDecl{Pos: pos}
	if p.cur().Kind == IDENT {
		st.Name = p.name()
	} else {
		st.Name = fmt.Sprintf("anon_%s_%d", p.file, pos.Line)
	}
	p.expect('{')
	mark := len(p.nodes.varBuf)
	for !p.at('}') && p.cur().Kind != EOF {
		te := p.parseTypePrefix()
		for {
			fieldType := te
			for p.accept('*') {
				fieldType.Ptr++
			}
			fpos := p.position()
			if p.cur().Kind != IDENT {
				p.errorf("expected field name")
				break
			}
			name := p.name()
			if p.accept('[') {
				if p.cur().Kind == INT {
					fieldType.ArrayLen = int(p.next().Val)
				} else {
					fieldType.ArrayLen = 1
					for !p.at(']') && p.cur().Kind != EOF {
						p.next()
					}
				}
				p.expect(']')
			}
			p.nodes.varBuf = append(p.nodes.varBuf, p.nodes.vars.New(VarDecl{Pos: fpos, Name: name, Type: fieldType}))
			if !p.accept(',') {
				break
			}
		}
		p.expect(';')
	}
	st.Fields = popList(&p.nodes.varBuf, &p.nodes.varList, mark)
	p.expect('}')
	return st
}

// popList pops the items a list rule pushed on *stack from mark on and
// returns them cloned into s.
func popList[T any](stack *[]T, s *slab.Of[T], mark int) []T {
	l := s.Clone((*stack)[mark:])
	*stack = (*stack)[:mark]
	return l
}

// parseTopLevelDecl parses a function definition/declaration or a global
// variable.
func (p *Parser) parseTopLevelDecl(f *File) {
	static := false
	for p.at(kwStatic) || p.at(kwExtern) || p.at(kwInline) {
		if p.at(kwStatic) {
			static = true
		}
		p.next()
	}
	te := p.parseTypePrefix()
	pos := p.position()
	if p.cur().Kind != IDENT {
		p.errorf("expected declarator name")
		return
	}
	name := p.name()
	if p.at('(') {
		fd := p.parseFuncRest(pos, name, te)
		fd.Static = static
		f.Funcs = append(f.Funcs, fd)
		return
	}
	// Global variable (possibly several comma-separated, possibly array,
	// possibly with aggregate initializer).
	for {
		g := &VarDecl{Pos: pos, Name: name, Type: te}
		g.Type.ArrayLen = p.arraySuffix()
		if p.accept('=') {
			if p.at('{') {
				g.InitNames = p.parseAggregateInit()
			} else {
				g.Init = p.parseAssignExpr()
			}
		}
		f.Globals = append(f.Globals, g)
		if !p.accept(',') {
			break
		}
		for p.accept('*') {
			te.Ptr++
		}
		pos = p.position()
		if p.cur().Kind != IDENT {
			p.errorf("expected declarator name")
			break
		}
		name = p.name()
	}
	p.expect(';')
}

// arraySuffix parses a declarator's optional [N]: it returns N, 1 when the
// length is no literal, and 0 without a suffix.
func (p *Parser) arraySuffix() int {
	if !p.accept('[') {
		return 0
	}
	n := 1
	if p.cur().Kind == INT {
		n = int(p.next().Val)
	}
	p.expect(']')
	return n
}

// parseAggregateInit skims a brace initializer, collecting identifier
// references (e.g. the function names in a platform_driver struct).
func (p *Parser) parseAggregateInit() []string {
	var names []string
	depth := 0
	for p.cur().Kind != EOF {
		t := p.cur()
		switch {
		case t.ID == '{':
			depth++
		case t.ID == '}':
			depth--
			if depth == 0 {
				p.next()
				return names
			}
		case t.Kind == IDENT:
			names = append(names, t.Text(p.lx.src))
		}
		p.next()
	}
	return names
}

func (p *Parser) parseFuncRest(pos Position, name string, result TypeExpr) *FuncDecl {
	fd := p.nodes.funcs.New(FuncDecl{Pos: pos, Name: name, Result: result})
	p.expect('(')
	if p.at(kwVoid) && p.peekN(1).ID == ')' {
		p.next()
	}
	mark := len(p.nodes.varBuf)
	for !p.at(')') && p.cur().Kind != EOF {
		if p.accept(pEllipsis) {
			fd.Variadic = true
			break
		}
		pt := p.parseTypePrefix()
		ppos := p.position()
		pname := ""
		if p.cur().Kind == IDENT {
			pname = p.name()
		}
		if p.accept('[') {
			// Array parameters decay to pointers.
			for !p.at(']') && p.cur().Kind != EOF {
				p.next()
			}
			p.expect(']')
			pt.Ptr++
		}
		if pname == "" {
			pname = fmt.Sprintf("arg%d", len(p.nodes.varBuf)-mark)
		}
		p.nodes.varBuf = append(p.nodes.varBuf, p.nodes.vars.New(VarDecl{Pos: ppos, Name: pname, Type: pt}))
		if !p.accept(',') {
			break
		}
	}
	fd.Params = popList(&p.nodes.varBuf, &p.nodes.varList, mark)
	// Panic-mode recovery: resynchronize at the parameter-list close so a
	// malformed signature does not consume the following declarations.
	for !p.at(')') && !p.at('{') && !p.at(';') && p.cur().Kind != EOF {
		p.next()
	}
	p.accept(')')
	if p.accept(';') {
		return fd // declaration only
	}
	fd.Body = p.parseBlock()
	return fd
}

func (p *Parser) parseBlock() *BlockStmt {
	pos := p.position()
	p.expect('{')
	mark := len(p.nodes.stmtBuf)
	for !p.at('}') && p.cur().Kind != EOF {
		start := p.pos
		s := p.parseStmt()
		p.nodes.stmtBuf = append(p.nodes.stmtBuf, s)
		if p.pos == start {
			p.next()
		}
	}
	b := p.nodes.blocks.New(BlockStmt{Pos: pos, Stmts: popList(&p.nodes.stmtBuf, &p.nodes.stmtList, mark)})
	p.expect('}')
	return b
}

func (p *Parser) parseStmt() Stmt {
	pos := p.position()
	n := p.nodes
	switch {
	case p.at('{'):
		return p.parseBlock()
	case p.accept(';'):
		return &EmptyStmt{Pos: pos}
	case p.accept(kwIf):
		p.expect('(')
		cond := p.parseExpr()
		p.expect(')')
		s := n.ifs.New(IfStmt{Pos: pos, Cond: cond, Then: p.parseStmt()})
		if p.accept(kwElse) {
			s.Else = p.parseStmt()
		}
		return s
	case p.accept(kwWhile):
		p.expect('(')
		cond := p.parseExpr()
		p.expect(')')
		return &WhileStmt{Pos: pos, Cond: cond, Body: p.parseStmt()}
	case p.accept(kwDo):
		body := p.parseStmt()
		p.expect(kwWhile)
		p.expect('(')
		cond := p.parseExpr()
		p.expect(')')
		p.expect(';')
		return &WhileStmt{Pos: pos, Cond: cond, Body: body, DoWhile: true}
	case p.accept(kwFor):
		p.expect('(')
		var init Stmt
		if !p.at(';') {
			if p.startsType(0) {
				init = p.parseDeclStmt()
			} else {
				e := p.parseExpr()
				init = n.exprStmt.New(ExprStmt{Pos: pos, X: e})
				p.expect(';')
			}
		} else {
			p.expect(';')
		}
		var cond Expr
		if !p.at(';') {
			cond = p.parseExpr()
		}
		p.expect(';')
		var post Expr
		if !p.at(')') {
			post = p.parseExpr()
		}
		p.expect(')')
		return &ForStmt{Pos: pos, Init: init, Cond: cond, Post: post, Body: p.parseStmt()}
	case p.accept(kwReturn):
		s := n.returns.New(ReturnStmt{Pos: pos})
		if !p.at(';') {
			s.X = p.parseExpr()
		}
		p.expect(';')
		return s
	case p.accept(kwGoto):
		s := &GotoStmt{Pos: pos}
		if p.cur().Kind == IDENT {
			s.Label = p.name()
		} else {
			p.errorf("expected label after goto")
		}
		p.expect(';')
		return s
	case p.accept(kwBreak):
		p.expect(';')
		return &BreakStmt{Pos: pos}
	case p.accept(kwContinue):
		p.expect(';')
		return &ContinueStmt{Pos: pos}
	case p.accept(kwSwitch):
		return p.parseSwitch(pos)
	case p.cur().Kind == IDENT && p.peekN(1).ID == ':' && p.peekN(2).ID != ':':
		name := p.name()
		p.expect(':')
		inner := Stmt(&EmptyStmt{Pos: pos})
		if !p.at('}') {
			inner = p.parseStmt()
		}
		return &LabelStmt{Pos: pos, Name: name, Stmt: inner}
	case p.startsType(0) && !(p.at(kwStruct) && p.peekN(2).ID == '{'):
		return p.parseDeclStmt()
	default:
		e := p.parseExpr()
		p.expect(';')
		return n.exprStmt.New(ExprStmt{Pos: pos, X: e})
	}
}

func (p *Parser) parseSwitch(pos Position) Stmt {
	p.expect('(')
	tag := p.parseExpr()
	p.expect(')')
	p.expect('{')
	s := &SwitchStmt{Pos: pos, Tag: tag}
	var cc *CaseClause
	for !p.at('}') && p.cur().Kind != EOF {
		switch {
		case p.accept(kwCase):
			cc = &CaseClause{Pos: p.position(), Val: p.parseExpr()}
			p.expect(':')
			s.Cases = append(s.Cases, cc)
		case p.accept(kwDefault):
			cc = &CaseClause{Pos: p.position(), IsDefault: true}
			p.expect(':')
			s.Cases = append(s.Cases, cc)
		default:
			if cc == nil {
				p.errorf("statement before first case")
				p.next()
				continue
			}
			cc.Body = append(cc.Body, p.parseStmt())
		}
	}
	p.expect('}')
	return s
}

func (p *Parser) parseDeclStmt() Stmt {
	pos := p.position()
	te := p.parseTypePrefix()
	mark := len(p.nodes.varBuf)
	for {
		dt := te
		for p.accept('*') {
			dt.Ptr++
		}
		vpos := p.position()
		if p.cur().Kind != IDENT {
			p.errorf("expected variable name")
			break
		}
		name := p.name()
		dt.ArrayLen = p.arraySuffix()
		d := p.nodes.vars.New(VarDecl{Pos: vpos, Name: name, Type: dt})
		if p.accept('=') {
			if p.at('{') {
				d.InitNames = p.parseAggregateInit()
				d.AggregateInit = true
			} else {
				d.Init = p.parseAssignExpr()
			}
		}
		p.nodes.varBuf = append(p.nodes.varBuf, d)
		if !p.accept(',') {
			break
		}
	}
	ds := p.nodes.decls.New(DeclStmt{Pos: pos, Decls: popList(&p.nodes.varBuf, &p.nodes.varList, mark)})
	p.expect(';')
	return ds
}

// ---- expressions ----

func (p *Parser) parseExpr() Expr {
	e := p.parseAssignExpr()
	for p.accept(',') {
		e = p.parseAssignExpr() // comma operator: keep last (effects preserved by caller lowering both? kept simple)
	}
	return e
}

// assignOps is 1 for the assignment operators, 0 for other tokens.
var assignOps = opTable("=,+=,-=,*=,/=,%=,&=,|=,^=")

func (p *Parser) parseAssignExpr() Expr {
	lhs := p.parseTernary()
	if assignOps[p.cur().ID] != 0 {
		pos := p.position()
		op := idText[p.next().ID]
		rhs := p.parseAssignExpr()
		return p.nodes.assigns.New(Assign{Pos: pos, Op: op, X: lhs, Y: rhs})
	}
	return lhs
}

func (p *Parser) parseTernary() Expr {
	c := p.parseBinary(1)
	if p.at('?') {
		pos := p.position()
		p.next()
		t := p.parseAssignExpr()
		p.expect(':')
		f := p.parseTernary()
		return &Cond{Pos: pos, C: c, T: t, F: f}
	}
	return c
}

// binPrec is each binary operator's precedence, 0 for other tokens.
var binPrec = opTable("|| && | ^ & ==,!= <,<=,>,>= <<,>> +,- *,/,%")

// opTable maps, by ID, each operator of ops, a space-separated list of
// comma-separated groups, to its group's number, counting from 1.
func opTable(ops string) (t [256]int8) {
	for i, group := range strings.Fields(ops) {
		for _, op := range strings.Split(group, ",") {
			t[spelled[op]] = int8(i + 1)
		}
	}
	return t
}

func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		prec := int(binPrec[p.cur().ID])
		if prec == 0 || prec < minPrec {
			return lhs
		}
		pos := p.position()
		op := idText[p.next().ID]
		rhs := p.parseBinary(prec + 1)
		lhs = p.nodes.binaries.New(Binary{Pos: pos, Op: op, X: lhs, Y: rhs})
	}
}

func (p *Parser) parseUnary() Expr {
	pos := p.position()
	switch id := p.cur().ID; id {
	case '!', '-', '~', '*', '&', pInc, pDec:
		p.next()
		return p.nodes.unaries.New(Unary{Pos: pos, Op: idText[id], X: p.parseUnary()})
	case '+':
		p.next()
		return p.parseUnary()
	case kwSizeof:
		p.next()
		if p.at('(') && p.startsType(1) {
			p.expect('(')
			te := p.parseTypePrefix()
			p.expect(')')
			return &SizeofExpr{Pos: pos, Type: te, IsType: true}
		}
		p.expect('(')
		x := p.parseExpr()
		p.expect(')')
		return &SizeofExpr{Pos: pos, X: x}
	case '(':
		if p.startsType(1) {
			p.expect('(')
			te := p.parseTypePrefix()
			p.expect(')')
			return &Cast{Pos: pos, Type: te, X: p.parseUnary()}
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	e := p.parsePrimary()
	n := p.nodes
	for {
		pos := p.position()
		switch {
		case p.at('('):
			id, ok := e.(*Ident)
			if !ok {
				p.errorf("indirect calls are not supported")
				id = &Ident{Pos: pos, Name: "__indirect__"}
			}
			p.expect('(')
			mark := len(n.exprBuf)
			for !p.at(')') && p.cur().Kind != EOF {
				a := p.parseAssignExpr()
				n.exprBuf = append(n.exprBuf, a)
				if !p.accept(',') {
					break
				}
			}
			e = n.calls.New(CallExpr{Pos: pos, Fun: id.Name, Args: popList(&n.exprBuf, &n.exprList, mark)})
			p.expect(')')
		case p.accept('['):
			i := p.parseExpr()
			p.expect(']')
			e = &Index{Pos: pos, X: e, I: i}
		case p.accept(pArrow):
			if p.cur().Kind != IDENT {
				p.errorf("expected field name after ->")
				return e
			}
			e = n.selects.New(Select{Pos: pos, X: e, Field: p.name(), Arrow: true})
		case p.accept('.'):
			if p.cur().Kind != IDENT {
				p.errorf("expected field name after .")
				return e
			}
			e = n.selects.New(Select{Pos: pos, X: e, Field: p.name()})
		case p.accept(pInc):
			e = &Postfix{Pos: pos, Op: "++", X: e}
		case p.accept(pDec):
			e = &Postfix{Pos: pos, Op: "--", X: e}
		default:
			return e
		}
	}
}

func (p *Parser) parsePrimary() Expr {
	pos := p.position()
	t := p.cur()
	switch {
	case t.Kind == INT || t.Kind == CHARLIT:
		p.next()
		return p.nodes.ints.New(IntLit{Pos: pos, Val: t.Val})
	case t.Kind == STRING:
		p.next()
		// Adjacent string literals concatenate, as in C.
		s := t.Text(p.lx.src)
		for p.cur().Kind == STRING {
			s += p.name()
		}
		return &StrLit{Pos: pos, Val: s}
	case t.ID == kwNULL:
		p.next()
		return &NullLit{Pos: pos}
	case t.Kind == IDENT:
		p.next()
		return p.nodes.idents.New(Ident{Pos: pos, Name: t.Text(p.lx.src)})
	case p.accept('('):
		e := p.parseExpr()
		p.expect(')')
		return e
	}
	p.errorf("expected expression, found %s", p.describe(t))
	return p.nodes.ints.New(IntLit{Pos: pos, Val: 0})
}
