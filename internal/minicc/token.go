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

import (
	"fmt"
	"strings"
)

// Kind classifies tokens.
type Kind uint8

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

// Token is a lexical token. It holds no pointer, so a token slice is a
// block the collector never scans: its text is the slice [Off, Off+Len) of
// the (preprocessed) source it was lexed from, read with Text.
type Token struct {
	Kind Kind
	ID   tokID  // the keyword or punctuator; 0 for other kinds
	Len  uint16 // the text's length, saturated at maxTokLen
	Off  int32  // the text's byte offset in the source
	Line int32
	Col  int32
	Val  int64 // for INT and CHARLIT
}

// maxTokLen is the longest Len; Text rescans a longer token's source.
const maxTokLen = 1<<16 - 1

// Text returns t's text in src, the source t was lexed from: an
// identifier, keyword, punctuator or integer's spelling, a string
// literal's decoded value, and "'c'" for any character literal.
func (t Token) Text(src string) string {
	switch t.Kind {
	case CHARLIT:
		return "'c'"
	case STRING:
		s, _, _ := stringLit(src, int(t.Off), true)
		return s
	}
	off := int(t.Off)
	end := off + int(t.Len)
	if t.Len == maxTokLen {
		if t.Kind == INT {
			end, _ = scanNumber(src, off)
		} else {
			end = scanIdent(src, off)
		}
	}
	return src[off:end]
}

// tokID names a keyword or punctuator, so the parser compares small
// integers, not text. A one-byte punctuator's ID is its byte; keywords and
// longer punctuators have IDs clear of the punctuator bytes.
type tokID uint8

// Keyword IDs, numbered in the order idText spells them: base types, then
// the ignored qualifiers, so that each group is a range.
const (
	kwInt, kwChar, kwLong, kwShort, kwVoid                          tokID = 1, 2, 3, 4, 5
	kwUnsigned, kwSigned, kwConst, kwVolatile, kwInline             tokID = 6, 7, 8, 9, 10
	kwStruct, kwUnion, kwEnum, kwTypedef, kwStatic, kwExtern        tokID = 11, 12, 13, 14, 15, 16
	kwIf, kwElse, kwWhile, kwFor, kwDo, kwSwitch, kwCase, kwDefault tokID = 17, 18, 19, 20, 21, 22, 23, 24
	kwReturn, kwGoto, kwBreak, kwContinue, kwSizeof, kwNULL         tokID = 25, 26, 27, 28, 29, 30
)

// Longer punctuators' IDs count from 128 in idText order; the parser names
// the first four.
const pEllipsis, pArrow, pInc, pDec tokID = 128, 129, 130, 131

// idText spells each ID, and spelled maps each spelling back to its ID.
// Unknown C keywords (volatile, const, unsigned, ...) are treated as no-op
// type qualifiers by the parser where reasonable, so realistic
// kernel-style code parses.
var idText, spelled = func() (t [256]string, m map[string]tokID) {
	m = make(map[string]tokID)
	add := func(id tokID, w string) { t[id], m[w] = w, id }
	for i, w := range strings.Fields("int char long short void unsigned signed const volatile inline " +
		"struct union enum typedef static extern if else while for do switch case default " +
		"return goto break continue sizeof NULL") {
		add(kwInt+tokID(i), w)
	}
	for i, w := range strings.Fields("... -> ++ -- <= << <<= >= >> >>= -= += && &= || |= *= /= %= ^= == !=") {
		add(pEllipsis+tokID(i), w)
	}
	for _, c := range []byte("(){}[],;:?~.<>-+&|*/%^=!") {
		add(tokID(c), string(c))
	}
	return t, m
}()

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
