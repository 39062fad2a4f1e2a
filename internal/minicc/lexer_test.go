package minicc

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestLexBasics(t *testing.T) {
	src := `int x = 42; // comment
/* block
comment */ char c = 'a';`
	toks, errs := Tokenize("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == EOF {
			break
		}
		texts = append(texts, tok.Text(src))
	}
	want := []string{"int", "x", "=", "42", ";", "char", "c", "=", "'c'", ";"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexOperatorsMaximalMunch(t *testing.T) {
	src := "a->b ++ -- <<= >= == != && || += ..."
	toks, _ := Tokenize("t.c", src)
	want := []string{"a", "->", "b", "++", "--", "<<=", ">=", "==", "!=", "&&", "||", "+=", "..."}
	for i, w := range want {
		if toks[i].Text(src) != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text(src), w)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, _ := Tokenize("t.c", "0 123 0x1F 42UL 7L")
	wantVals := []int64{0, 123, 31, 42, 7}
	for i, w := range wantVals {
		if toks[i].Kind != INT || toks[i].Val != w {
			t.Errorf("token %d: got %v val %d, want INT %d", i, toks[i].Kind, toks[i].Val, w)
		}
	}
}

func TestLexPreprocessorSkipped(t *testing.T) {
	src := "#include <stdio.h>\n#define FOO 1 \\\n  2\nint x;"
	toks, errs := Tokenize("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if toks[0].Text(src) != "int" {
		t.Errorf("first token = %q, want int", toks[0].Text(src))
	}
}

func TestLexStringsAndEscapes(t *testing.T) {
	src := `"hello\nworld" '\t' '\0'`
	toks, _ := Tokenize("t.c", src)
	if toks[0].Kind != STRING || toks[0].Text(src) != "hello\nworld" {
		t.Errorf("string = %q", toks[0].Text(src))
	}
	if toks[1].Val != '\t' || toks[2].Val != 0 {
		t.Errorf("escapes: %d %d", toks[1].Val, toks[2].Val)
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, _ := Tokenize("t.c", "a\nb\n\nc")
	wantLines := []int{1, 2, 4}
	for i, w := range wantLines {
		if int(toks[i].Line) != w {
			t.Errorf("token %d line = %d, want %d", i, toks[i].Line, w)
		}
	}
}

func TestLexErrorRecovery(t *testing.T) {
	src := "int $ x;"
	toks, errs := Tokenize("t.c", src)
	if len(errs) == 0 {
		t.Error("expected error for $")
	}
	// Lexing continues past the bad character.
	found := false
	for _, tok := range toks {
		if tok.Text(src) == "x" {
			found = true
		}
	}
	if !found {
		t.Error("lexer did not recover after bad character")
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	_, errs := Tokenize("t.c", "/* never closed")
	if len(errs) == 0 {
		t.Error("expected unterminated comment error")
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	src := "if ifx struct structs return returning"
	toks, _ := Tokenize("t.c", src)
	wantKinds := []Kind{KEYWORD, IDENT, KEYWORD, IDENT, KEYWORD, IDENT}
	for i, w := range wantKinds {
		if toks[i].Kind != w {
			t.Errorf("token %d (%q) kind = %v, want %v", i, toks[i].Text(src), toks[i].Kind, w)
		}
	}
}

// Property: lexing never panics and always terminates with EOF for random
// inputs.
func TestLexTotalityProperty(t *testing.T) {
	f := func(src string) bool {
		toks, _ := Tokenize("t.c", src)
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: lexing integer literals round-trips small decimal values.
func TestLexIntRoundTripProperty(t *testing.T) {
	f := func(v uint16) bool {
		toks, _ := Tokenize("t.c", "  "+itoa(int64(v))+" ")
		return toks[0].Kind == INT && toks[0].Val == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestLexStrayBytesRun pins that a run of bytes no token starts with costs
// one error and linear time: a megabyte of '@' used to recurse once per
// byte and record a million errors, taking seconds.
func TestLexStrayBytesRun(t *testing.T) {
	src := strings.Repeat("@", 1<<20)
	start := time.Now()
	toks, errs := Tokenize("big.c", src)
	_, err := Parse("big.c", src)
	elapsed := time.Since(start)
	if len(toks) != 1 || toks[0].Kind != EOF {
		t.Errorf("tokens = %v, want only EOF", toks)
	}
	if len(errs) != 1 {
		t.Errorf("%d lexical errors, want 1", len(errs))
	}
	const want = `big.c:1:1: unexpected character "@"`
	if err == nil || err.Error() != want {
		t.Errorf("Parse error = %v, want %s", err, want)
	}
	if elapsed > 200*time.Millisecond && !raceEnabled {
		t.Errorf("tokenizing and parsing 1 MB of stray bytes took %v, want under 200ms", elapsed)
	}
	// Separate runs are separate errors.
	if _, errs := Tokenize("t.c", "int @@ x $ y;"); len(errs) != 2 {
		t.Errorf("errors for two runs = %v, want 2", errs)
	}
}

// TestLexPunctuatorsMaximalMunch checks the first-byte punctuator switch
// against maximal munch over the full punctuator table, on every string of
// up to three punctuator bytes.
func TestLexPunctuatorsMaximalMunch(t *testing.T) {
	table := []string{
		"<<=", ">>=", "...",
		"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
		"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
		"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
		"(", ")", "{", "}", "[", "]", ",", ";", ":", ".", "?",
	}
	munch := func(s string) string {
		for _, p := range table { // longest first
			if strings.HasPrefix(s, p) {
				return p
			}
		}
		return ""
	}
	alphabet := "<>=.-+*/%&|^~!(){}[],;:?a@"
	var strs []string
	for _, a := range alphabet {
		strs = append(strs, string(a))
		for _, b := range alphabet {
			strs = append(strs, string(a)+string(b))
			for _, c := range alphabet {
				strs = append(strs, string(a)+string(b)+string(c))
			}
		}
	}
	for _, s := range strs {
		id, n := punct(s)
		if got, want := s[:n], munch(s); got != want || got != idText[id] {
			t.Errorf("punct(%q) = %q (ID spelling %q), want %q", s, got, idText[id], want)
		}
	}
}
