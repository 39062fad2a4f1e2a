package minicc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// lexEdgeCases are small inputs for the lexer's corner cases: escapes,
// unterminated literals and comments, bytes that start no token, integer
// suffixes and maximal munch.
var lexEdgeCases = []string{
	"", "/* unterminated", "\"unterminated", "\"esc\\\"aped\\n\" 'a' '\\'' '\\0' '", "'x",
	"int $ x @@ y;", "a\x00b", "0 123 0x1F 0XffUL 42UL 7L 0x", "a->b ++ -- <<= >>= >= == != && || += ... .. .",
	"#define X 1\n#include <a.h>\nint x; # not at col 1\n  #define Y", "\"a\" \"b\"\n\"multi\nline\" x",
	"if ifx struct structs return returning union NULL", "x // comment\ny /* c\nc */ z\r\n\tw",
}

// tokenStreamDigest hashes every token's kind, text, value, line and
// column, file by file in sorted name order, with the lexical errors.
func tokenStreamDigest(sources map[string]string) string {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	slices.Sort(names)
	h := sha256.New()
	var num [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(num[:], uint64(v))
		h.Write(num[:])
	}
	str := func(s string) {
		put(int64(len(s)))
		h.Write([]byte(s))
	}
	for _, n := range names {
		src := Preprocess(sources[n])
		toks, errs := Tokenize(n, src)
		str(n)
		put(int64(len(toks)))
		for _, t := range toks {
			put(int64(t.Kind))
			str(t.Text(src))
			put(t.Val)
			put(int64(t.Line))
			put(int64(t.Col))
		}
		put(int64(len(errs)))
		for _, err := range errs {
			str(err.Error())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTokenStreamDigest pins the token stream of every frontend corpus and
// of the lexer's corner cases against digests recorded with the lexer whose
// tokens carried their text as a string.
func TestTokenStreamDigest(t *testing.T) {
	want := readDigests(t, "testdata/token_digests.txt")
	corpora := append(frontendCorpora(), digestCorpus{"lex-edge", lexEdgeSources()})
	if len(want) != len(corpora) {
		t.Errorf("testdata has %d digests for %d corpora", len(want), len(corpora))
	}
	for _, c := range corpora {
		if got := tokenStreamDigest(c.sources); got != want[c.name] {
			t.Errorf("%s: token digest %s, recorded %s", c.name, got, want[c.name])
		}
	}
}

func lexEdgeSources() map[string]string {
	m := make(map[string]string)
	for i, s := range lexEdgeCases {
		m[string(rune('a'+i))+".c"] = s
	}
	return m
}

// TestTokenPointerFree pins the token layout: no field the collector has
// to scan, and at most 24 bytes, so a file's token slice is one small
// pointer-free block.
func TestTokenPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Token{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Token.%s has type %s, which may hold a pointer", f.Name, f.Type)
		}
	}
	if n := unsafe.Sizeof(Token{}); n > 24 {
		t.Errorf("Token is %d bytes, want at most 24", n)
	}
}

// TestTokenIDsSpell checks the keyword and punctuator IDs the parser names
// against the spellings the lexer gives them.
func TestTokenIDsSpell(t *testing.T) {
	want := map[tokID]string{
		kwInt: "int", kwChar: "char", kwLong: "long", kwShort: "short", kwVoid: "void",
		kwUnsigned: "unsigned", kwSigned: "signed", kwConst: "const", kwVolatile: "volatile", kwInline: "inline",
		kwStruct: "struct", kwUnion: "union", kwEnum: "enum", kwTypedef: "typedef", kwStatic: "static", kwExtern: "extern",
		kwIf: "if", kwElse: "else", kwWhile: "while", kwFor: "for", kwDo: "do", kwSwitch: "switch", kwCase: "case", kwDefault: "default",
		kwReturn: "return", kwGoto: "goto", kwBreak: "break", kwContinue: "continue", kwSizeof: "sizeof", kwNULL: "NULL",
		pEllipsis: "...", pArrow: "->", pInc: "++", pDec: "--",
	}
	for id, w := range want {
		if idText[id] != w || spelled[w] != id {
			t.Errorf("ID %d spells %q (and %q is ID %d), want %q", id, idText[id], w, spelled[w], w)
		}
	}
	for id, w := range idText {
		if w != "" && spelled[w] != tokID(id) {
			t.Errorf("%q is ID %d and %d", w, id, spelled[w])
		}
	}
}

// TestTokenLongText pins that a token longer than Token.Len holds reads
// its whole text back.
func TestTokenLongText(t *testing.T) {
	long := strings.Repeat("a", maxTokLen+10)
	digits := strings.Repeat("7", maxTokLen+3)
	src := long + " " + digits + "UL \"" + long + "\""
	toks, errs := Tokenize("t.c", src)
	if len(errs) != 0 || len(toks) != 4 {
		t.Fatalf("%d tokens, errors %v", len(toks), errs)
	}
	for i, want := range []string{long, digits, long} {
		if got := toks[i].Text(src); got != want {
			t.Errorf("token %d: text of %d bytes, want %d", i, len(got), len(want))
		}
	}
}
