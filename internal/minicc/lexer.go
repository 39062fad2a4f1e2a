package minicc

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// lexer turns mini-C source text into tokens. Preprocessor lines (#include,
// #define, ...) are skipped whole, so lightly-preprocessed kernel-style code
// lexes cleanly.
type lexer struct {
	file, src string
	pos, line int
	lineStart int // the offset of the current line's first byte
	errs      []error
}

func (lx *lexer) col() int { return lx.pos - lx.lineStart + 1 }

func (lx *lexer) errorf(line, col int, format string, args ...any) {
	lx.errs = append(lx.errs, &Error{File: lx.file, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)})
}

// skipTo advances to offset end, counting the lines it passes.
func (lx *lexer) skipTo(end int) {
	for ; lx.pos < end; lx.pos++ {
		if lx.src[lx.pos] == '\n' {
			lx.line++
			lx.lineStart = lx.pos + 1
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipTrivia consumes whitespace, comments and preprocessor lines.
func (lx *lexer) skipTrivia() {
	for lx.pos < len(lx.src) {
		s := lx.src[lx.pos:]
		switch c := s[0]; {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.skipTo(lx.pos + 1)
		case strings.HasPrefix(s, "//"):
			lx.skipTo(lineEnd(lx.src, lx.pos))
		case strings.HasPrefix(s, "/*"):
			if i := strings.Index(s[2:], "*/"); i >= 0 {
				lx.skipTo(lx.pos + i + 4)
				break
			}
			lx.errorf(lx.line, lx.col(), "unterminated block comment")
			lx.skipTo(len(lx.src))
		case c == '#' && lx.pos == lx.lineStart:
			// Preprocessor directive: skip the (possibly continued) line.
			end := lineEnd(lx.src, lx.pos)
			for end < len(lx.src) && lx.src[end-1] == '\\' {
				end = lineEnd(lx.src, end+1)
			}
			lx.skipTo(end)
		default:
			return
		}
	}
}

// lineEnd returns the offset of the next newline from i on, or len(src).
func lineEnd(src string, i int) int {
	if n := strings.IndexByte(src[i:], '\n'); n >= 0 {
		return i + n
	}
	return len(src)
}

// punct returns the ID and length of the punctuator that starts s by
// maximal munch, or length 0 if none does.
func punct(s string) (tokID, int) {
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
	if n == 1 {
		return tokID(s[0]), 1
	}
	return spelled[s[:n]], n
}

// next returns the next token. A run of bytes that start no token is
// skipped with one error, at its first byte.
func (lx *lexer) next() Token {
	badEnd := -1
	for {
		lx.skipTrivia()
		if lx.pos >= len(lx.src) {
			return Token{Kind: EOF, Off: int32(lx.pos), Line: int32(lx.line), Col: int32(lx.col())}
		}
		if t, ok := lx.token(); ok {
			return t
		}
		r, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if lx.pos != badEnd {
			// A byte that is not valid UTF-8 is quoted as itself ("\xff").
			stray := string(r)
			if r == utf8.RuneError && size == 1 {
				stray = lx.src[lx.pos : lx.pos+1]
			}
			lx.errorf(lx.line, lx.col(), "unexpected character %q", stray)
		}
		lx.skipTo(lx.pos + size)
		badEnd = lx.pos
	}
}

// token scans the token at the current position, which is not trivia and
// not the end of input; ok is false when no token starts there.
func (lx *lexer) token() (tok Token, ok bool) {
	src, start := lx.src, lx.pos
	tok = Token{Off: int32(start), Line: int32(lx.line), Col: int32(lx.col())}
	var end int
	switch c := src[start]; {
	case isIdentStart(c):
		end = scanIdent(src, start)
		tok.Kind, tok.Len = IDENT, uint16(min(end-start, maxTokLen))
		if id, ok := spelled[src[start:end]]; ok {
			tok.Kind, tok.ID = KEYWORD, id
		}
	case isDigit(c):
		end, tok.Val = scanNumber(src, start)
		tok.Kind, tok.Len = INT, uint16(min(end-start, maxTokLen))
		// Swallow integer suffixes (U, L, UL, ...).
		for end < len(src) && strings.IndexByte("uUlL", src[end]) >= 0 {
			end++
		}
	case c == '\'':
		tok.Kind, end = CHARLIT, start+1
		if end < len(src) && src[end] == '\\' {
			end++
			if end < len(src) {
				tok.Val = escapeVal(src[end])
				end++
			}
		} else if end < len(src) {
			tok.Val = int64(src[end])
			end++
		}
		if end < len(src) && src[end] == '\'' {
			end++
		} else {
			lx.errorf(int(tok.Line), int(tok.Col), "unterminated character literal")
		}
	case c == '"':
		var closed bool
		_, end, closed = stringLit(src, start, false)
		if !closed {
			lx.errorf(int(tok.Line), int(tok.Col), "unterminated string literal")
		}
		tok.Kind, tok.Len = STRING, uint16(min(end-start, maxTokLen))
	default:
		id, n := punct(src[start:])
		if n == 0 {
			return Token{}, false
		}
		tok.Kind, tok.ID, tok.Len, end = PUNCT, id, uint16(n), start+n
	}
	lx.skipTo(end)
	return tok, true
}

// scanIdent returns the end of the identifier or keyword at src[i].
func scanIdent(src string, i int) int {
	for i < len(src) && isIdentCont(src[i]) {
		i++
	}
	return i
}

// scanNumber returns the end of the digits of the integer literal at src[i],
// its suffix excluded, and its value, wrapped to 64 bits.
func scanNumber(src string, i int) (end int, val int64) {
	if strings.HasPrefix(src[i:], "0x") || strings.HasPrefix(src[i:], "0X") {
		for i += 2; i < len(src) && isHex(src[i]); i++ {
			val = val*16 + hexVal(src[i])
		}
		return i, val
	}
	for ; i < len(src) && isDigit(src[i]); i++ {
		val = val*10 + int64(src[i]-'0')
	}
	return i, val
}

// stringLit scans the string literal whose opening quote is src[i]. It
// returns the position after the closing quote (len(src) when there is
// none) and whether there is one; with decode set it also returns the
// literal's value, escapes resolved.
func stringLit(src string, i int, decode bool) (val string, end int, closed bool) {
	var sb strings.Builder
	for i++; i < len(src) && src[i] != '"'; i++ {
		ch := src[i]
		if ch == '\\' && i+1 < len(src) {
			i++
			ch = byte(escapeVal(src[i]))
		}
		if decode {
			sb.WriteByte(ch)
		}
	}
	if i < len(src) {
		return sb.String(), i + 1, true
	}
	return sb.String(), i, false
}

func isHex(c byte) bool { return isDigit(c) || c|0x20 >= 'a' && c|0x20 <= 'f' }

// hexVal returns the value of the hex digit c.
func hexVal(c byte) int64 { return int64(strings.IndexByte("0123456789abcdef", c|0x20)) }

// escapeVal returns the value of the escape sequence \c: \n, \t, \r and \0
// are control characters, and any other c stands for itself.
func escapeVal(c byte) int64 {
	if i := strings.IndexByte("ntr0", c); i >= 0 {
		return int64("\n\t\r\x00"[i])
	}
	return int64(c)
}

// Tokenize returns all tokens of src, ending with EOF, and the lexical
// errors found: the tokens Parse lexes from the preprocessed source as it
// parses.
func Tokenize(file, src string) ([]Token, []error) {
	lx := &lexer{file: file, src: src, line: 1}
	var toks []Token
	for {
		t := lx.next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, lx.errs
		}
	}
}
