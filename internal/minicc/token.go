// Package minicc is a frontend for a C subset ("mini-C") sufficient to
// express the OS-code patterns PATA analyzes: structs and field accesses,
// pointers, address-of and dereference, control flow including goto (used in
// kernel error-handling code), loops, and direct calls. It lowers programs
// to the CIR of internal/cir, playing the role Clang 9 plays in the paper's
// P1 phase.
//
// As P1 compiles each file on its own and joins the results through a
// function-information database, LowerAll parses the files in parallel,
// declares every file's types, globals and function signatures in one
// sequential pass in sorted file order, then lowers and verifies the
// function bodies in parallel, on GOMAXPROCS goroutines. A body sees the
// declarations of every file; the module does not depend on the number of
// goroutines.
//
// Deliberately unsupported, matching the paper's stated limitations (§4, §7):
// function-pointer calls, varargs data dependence, unions, floating point.
package minicc

import "fmt"

// Kind classifies tokens.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INT // integer literal
	CHARLIT
	STRING
	PUNCT // operators and delimiters
	KEYWORD
)

var kindNames = map[Kind]string{
	EOF: "eof", IDENT: "identifier", INT: "integer", CHARLIT: "char",
	STRING: "string", PUNCT: "punctuator", KEYWORD: "keyword",
}

func (k Kind) String() string { return kindNames[k] }

// Token is a lexical token.
type Token struct {
	Kind Kind
	Text string
	Val  int64 // for INT and CHARLIT
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Kind == EOF {
		return "<eof>"
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords recognized by the lexer. Unknown C keywords (volatile, const,
// unsigned, ...) are treated as no-op type qualifiers by the parser where
// reasonable, so realistic kernel-style code parses.
var keywords = map[string]bool{
	"int": true, "char": true, "long": true, "short": true, "void": true,
	"unsigned": true, "signed": true, "struct": true, "union": false,
	"if": true, "else": true, "while": true, "for": true, "do": true,
	"return": true, "goto": true, "break": true, "continue": true,
	"static": true, "extern": true, "inline": true, "const": true,
	"volatile": true, "sizeof": true, "NULL": true, "typedef": true,
	"switch": true, "case": true, "default": true, "enum": true,
}

// Error is a frontend diagnostic with a source position.
type Error struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}
