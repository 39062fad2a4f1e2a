package minicc

import "repro/internal/slab"

// Position of an AST node in its file (the File it was parsed into).
type Position struct {
	Line int32
	Col  int32
}

// TypeExpr is a syntactic type: a base name plus pointer depth plus an
// optional array length on the declarator.
type TypeExpr struct {
	Base     string // "int", "char", "long", "void", or struct tag
	IsStruct bool
	Ptr      int // pointer depth
	ArrayLen int // 0 when not an array
}

// File is a parsed translation unit.
type File struct {
	Name    string
	Structs []*StructDecl
	Funcs   []*FuncDecl
	Globals []*VarDecl
	Enums   []*EnumDecl
	// Lines is the number of source lines in the file.
	Lines int
	// ctx hashes the preprocessed source outside the definitions' spans
	// (see hashSpans).
	ctx uint64
}

// StructDecl declares a struct type.
type StructDecl struct {
	Pos    Position
	Name   string
	Fields []*VarDecl
}

// EnumDecl declares enumerator constants.
type EnumDecl struct {
	Pos   Position
	Names []string
	Vals  []int64
}

// VarDecl declares a variable (global, local, field or parameter).
type VarDecl struct {
	Pos  Position
	Name string
	Type TypeExpr
	Init Expr // optional
	// InitNames holds identifiers that appear in a global aggregate
	// initializer (e.g. .probe = s5p_mfc_probe); they are recorded as
	// address-taken functions for the callgraph.
	InitNames []string
	// AggregateInit marks a local declared with a brace initializer
	// (struct s x = {0};) — lowered as bulk initialization.
	AggregateInit bool
}

// FuncDecl is a function definition or declaration.
type FuncDecl struct {
	Pos      Position
	Name     string
	Result   TypeExpr
	Params   []*VarDecl
	Variadic bool
	Body     *BlockStmt // nil for declarations
	Static   bool

	// A definition's span runs from its name to the next top-level token,
	// bytes [off, end) of the preprocessed source; span hashes it (see
	// hashSpans).
	off, end int32
	span     uint64
}

// Stmt is a statement node.
type Stmt interface{ stmtPos() Position }

// Expr is an expression node.
type Expr interface{ exprPos() Position }

// BlockStmt is { ... }.
type BlockStmt struct {
	Pos   Position
	Stmts []Stmt
}

// DeclStmt is a local variable declaration.
type DeclStmt struct {
	Pos   Position
	Decls []*VarDecl
}

// ExprStmt is an expression evaluated for effect.
type ExprStmt struct {
	Pos Position
	X   Expr
}

// IfStmt is if/else.
type IfStmt struct {
	Pos  Position
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is a while (or lowered do-while) loop.
type WhileStmt struct {
	Pos     Position
	Cond    Expr
	Body    Stmt
	DoWhile bool
}

// ForStmt is a C for loop.
type ForStmt struct {
	Pos  Position
	Init Stmt // may be nil
	Cond Expr // may be nil
	Post Expr // may be nil
	Body Stmt
}

// ReturnStmt returns from the function.
type ReturnStmt struct {
	Pos Position
	X   Expr // may be nil
}

// GotoStmt jumps to a label.
type GotoStmt struct {
	Pos   Position
	Label string
}

// LabelStmt marks a goto target.
type LabelStmt struct {
	Pos  Position
	Name string
	Stmt Stmt
}

// BreakStmt exits the innermost loop or switch.
type BreakStmt struct{ Pos Position }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Position }

// SwitchStmt is a C switch over an integer expression.
type SwitchStmt struct {
	Pos   Position
	Tag   Expr
	Cases []*CaseClause
}

// CaseClause is one case (or default when IsDefault) of a switch.
type CaseClause struct {
	Pos       Position
	Val       Expr // nil for default
	IsDefault bool
	Body      []Stmt
}

// EmptyStmt is a bare semicolon.
type EmptyStmt struct{ Pos Position }

func (s *BlockStmt) stmtPos() Position    { return s.Pos }
func (s *DeclStmt) stmtPos() Position     { return s.Pos }
func (s *ExprStmt) stmtPos() Position     { return s.Pos }
func (s *IfStmt) stmtPos() Position       { return s.Pos }
func (s *WhileStmt) stmtPos() Position    { return s.Pos }
func (s *ForStmt) stmtPos() Position      { return s.Pos }
func (s *ReturnStmt) stmtPos() Position   { return s.Pos }
func (s *GotoStmt) stmtPos() Position     { return s.Pos }
func (s *LabelStmt) stmtPos() Position    { return s.Pos }
func (s *BreakStmt) stmtPos() Position    { return s.Pos }
func (s *ContinueStmt) stmtPos() Position { return s.Pos }
func (s *SwitchStmt) stmtPos() Position   { return s.Pos }
func (s *EmptyStmt) stmtPos() Position    { return s.Pos }

// Ident is a name reference.
type Ident struct {
	Pos  Position
	Name string
}

// IntLit is an integer (or character) literal.
type IntLit struct {
	Pos Position
	Val int64
}

// StrLit is a string literal.
type StrLit struct {
	Pos Position
	Val string
}

// NullLit is the NULL constant.
type NullLit struct{ Pos Position }

// Unary is op X, where op ∈ {!, -, ~, *, &, ++, --} (++/-- prefix).
type Unary struct {
	Pos Position
	Op  string
	X   Expr
}

// Postfix is X op, where op ∈ {++, --}.
type Postfix struct {
	Pos Position
	Op  string
	X   Expr
}

// Binary is X op Y for arithmetic/relational/logical operators.
type Binary struct {
	Pos  Position
	Op   string
	X, Y Expr
}

// Assign is X op Y where op ∈ {=, +=, -=, *=, /=, %=, &=, |=, ^=}.
type Assign struct {
	Pos  Position
	Op   string
	X, Y Expr
}

// Cond is the ternary C ? T : F.
type Cond struct {
	Pos     Position
	C, T, F Expr
}

// CallExpr is a direct call Fun(Args...). Fun must be an identifier;
// function-pointer calls are rejected (paper §7 limitation).
type CallExpr struct {
	Pos  Position
	Fun  string
	Args []Expr
}

// Index is X[I].
type Index struct {
	Pos Position
	X   Expr
	I   Expr
}

// Select is X.Field (Arrow false) or X->Field (Arrow true).
type Select struct {
	Pos   Position
	X     Expr
	Field string
	Arrow bool
}

// Cast is (T)X.
type Cast struct {
	Pos  Position
	Type TypeExpr
	X    Expr
}

// SizeofExpr is sizeof(T) or sizeof(expr).
type SizeofExpr struct {
	Pos    Position
	Type   TypeExpr // valid when IsType
	X      Expr     // valid otherwise
	IsType bool
}

func (e *Ident) exprPos() Position      { return e.Pos }
func (e *IntLit) exprPos() Position     { return e.Pos }
func (e *StrLit) exprPos() Position     { return e.Pos }
func (e *NullLit) exprPos() Position    { return e.Pos }
func (e *Unary) exprPos() Position      { return e.Pos }
func (e *Postfix) exprPos() Position    { return e.Pos }
func (e *Binary) exprPos() Position     { return e.Pos }
func (e *Assign) exprPos() Position     { return e.Pos }
func (e *Cond) exprPos() Position       { return e.Pos }
func (e *CallExpr) exprPos() Position   { return e.Pos }
func (e *Index) exprPos() Position      { return e.Pos }
func (e *Select) exprPos() Position     { return e.Pos }
func (e *Cast) exprPos() Position       { return e.Pos }
func (e *SizeofExpr) exprPos() Position { return e.Pos }

// nodes holds the lookahead buffer a Parser reuses, the slabs it takes the
// AST from, and the stacks its list rules collect into (see popList).
type nodes struct {
	look     []Token
	blocks   slab.Of[BlockStmt]
	decls    slab.Of[DeclStmt]
	exprStmt slab.Of[ExprStmt]
	ifs      slab.Of[IfStmt]
	returns  slab.Of[ReturnStmt]
	idents   slab.Of[Ident]
	ints     slab.Of[IntLit]
	unaries  slab.Of[Unary]
	binaries slab.Of[Binary]
	assigns  slab.Of[Assign]
	calls    slab.Of[CallExpr]
	selects  slab.Of[Select]
	vars     slab.Of[VarDecl]
	funcs    slab.Of[FuncDecl]

	stmtList slab.Of[Stmt]
	exprList slab.Of[Expr]
	varList  slab.Of[*VarDecl]
	stmtBuf  []Stmt
	exprBuf  []Expr
	varBuf   []*VarDecl
}
