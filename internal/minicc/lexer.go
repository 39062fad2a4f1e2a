package minicc

import (
	"fmt"
	"strings"
)

// Lexer turns mini-C source text into tokens. Preprocessor lines (#include,
// #define, ...) are skipped whole, so lightly-preprocessed kernel-style code
// lexes cleanly.
type Lexer struct {
	file string
	src  string
	pos  int
	line int
	col  int
	errs []error
}

// NewLexer returns a lexer over src, reporting positions against file.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

// Errors returns lexical errors encountered so far.
func (lx *Lexer) Errors() []error { return lx.errs }

func (lx *Lexer) errorf(line, col int, format string, args ...any) {
	lx.errs = append(lx.errs, &Error{File: lx.file, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)})
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipTrivia consumes whitespace, comments and preprocessor lines.
func (lx *Lexer) skipTrivia() {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			startLine, startCol := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.errorf(startLine, startCol, "unterminated block comment")
			}
		case c == '#' && lx.col == 1:
			// Preprocessor directive: skip the (possibly continued) line.
			for lx.pos < len(lx.src) {
				if lx.peek() == '\\' && lx.peek2() == '\n' {
					lx.advance()
					lx.advance()
					continue
				}
				if lx.peek() == '\n' {
					break
				}
				lx.advance()
			}
		default:
			return
		}
	}
}

// punct returns the punctuator that starts s by maximal munch, or "" if
// none does.
func punct(s string) string {
	var c1, c2 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	if len(s) > 2 {
		c2 = s[2]
	}
	n := 0
	switch s[0] {
	case '(', ')', '{', '}', '[', ']', ',', ';', ':', '?', '~':
		n = 1
	case '.':
		n = 1
		if c1 == '.' && c2 == '.' {
			n = 3
		}
	case '<', '>':
		// <, <=, <<, <<= and the same for >.
		n = 1
		if c1 == s[0] {
			n = 2
			if c2 == '=' {
				n = 3
			}
		} else if c1 == '=' {
			n = 2
		}
	case '-':
		n = 1
		if c1 == '>' || c1 == '-' || c1 == '=' {
			n = 2
		}
	case '+', '&', '|':
		// +, ++, += and the same for & and |.
		n = 1
		if c1 == s[0] || c1 == '=' {
			n = 2
		}
	case '*', '/', '%', '^', '=', '!':
		n = 1
		if c1 == '=' {
			n = 2
		}
	}
	return s[:n]
}

// Next returns the next token. A run of bytes that start no token is
// skipped with one error, at its first byte.
func (lx *Lexer) Next() Token {
	badEnd := -1
	for {
		lx.skipTrivia()
		if lx.pos >= len(lx.src) {
			return Token{Kind: EOF, Line: lx.line, Col: lx.col}
		}
		if t, ok := lx.token(); ok {
			return t
		}
		if lx.pos != badEnd {
			lx.errorf(lx.line, lx.col, "unexpected character %q", string(lx.peek()))
		}
		lx.advance()
		badEnd = lx.pos
	}
}

// token scans the token at the current position, which is not trivia and
// not the end of input; ok is false when no token starts there.
func (lx *Lexer) token() (tok Token, ok bool) {
	line, col := lx.line, lx.col
	c := lx.peek()

	switch {
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		k := IDENT
		if _, ok := keywords[text]; ok {
			k = KEYWORD
		}
		return Token{Kind: k, Text: text, Line: line, Col: col}, true

	case isDigit(c):
		start := lx.pos
		base := int64(10)
		if c == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
			lx.advance()
			lx.advance()
			base = 16
			for lx.pos < len(lx.src) && isHex(lx.peek()) {
				lx.advance()
			}
		} else {
			for lx.pos < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		text := lx.src[start:lx.pos]
		// Swallow integer suffixes (U, L, UL, ...).
		for lx.pos < len(lx.src) && strings.ContainsRune("uUlL", rune(lx.peek())) {
			lx.advance()
		}
		val := parseInt(text, base)
		return Token{Kind: INT, Text: text, Val: val, Line: line, Col: col}, true

	case c == '\'':
		lx.advance()
		var v int64
		if lx.peek() == '\\' {
			lx.advance()
			if lx.pos < len(lx.src) {
				v = escapeVal(lx.advance())
			}
		} else if lx.pos < len(lx.src) {
			v = int64(lx.advance())
		}
		if lx.peek() == '\'' {
			lx.advance()
		} else {
			lx.errorf(line, col, "unterminated character literal")
		}
		return Token{Kind: CHARLIT, Text: "'c'", Val: v, Line: line, Col: col}, true

	case c == '"':
		lx.advance()
		var sb strings.Builder
		for lx.pos < len(lx.src) && lx.peek() != '"' {
			ch := lx.advance()
			if ch == '\\' && lx.pos < len(lx.src) {
				ch = byte(escapeVal(lx.advance()))
			}
			sb.WriteByte(ch)
		}
		if lx.pos < len(lx.src) {
			lx.advance() // closing quote
		} else {
			lx.errorf(line, col, "unterminated string literal")
		}
		return Token{Kind: STRING, Text: sb.String(), Line: line, Col: col}, true
	}

	p := punct(lx.src[lx.pos:])
	if p == "" {
		return Token{}, false
	}
	lx.pos += len(p)
	lx.col += len(p)
	return Token{Kind: PUNCT, Text: p, Line: line, Col: col}, true
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func parseInt(text string, base int64) int64 {
	var v int64
	if base == 16 {
		for i := 2; i < len(text); i++ {
			v = v*16 + int64(hexVal(text[i]))
		}
		return v
	}
	for i := 0; i < len(text); i++ {
		v = v*10 + int64(text[i]-'0')
	}
	return v
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

func escapeVal(c byte) int64 {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	}
	return int64(c)
}

// srcBytesPerToken sizes Tokenize's token slice. The generated corpora's
// files have 3.3–4.3 bytes of preprocessed source per token (3.8 on
// average), so estimating from a lower ratio lets them tokenize without
// regrowing the slice.
const srcBytesPerToken = 3

// Tokenize returns all tokens of src, ending with EOF, and the lexical
// errors found. Parse runs it on the preprocessed source.
func Tokenize(file, src string) ([]Token, []error) {
	lx := NewLexer(file, src)
	toks := make([]Token, 0, len(src)/srcBytesPerToken+1)
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	return toks, lx.Errors()
}
