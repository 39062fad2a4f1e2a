package minicc

import (
	"strings"
)

// Preprocess implements the C-preprocessor subset OS code leans on:
//
//   - #define NAME body            (object-like macros)
//   - #define NAME(a, b) body      (function-like macros)
//   - #undef NAME
//   - #if 0 ... [#else ...] #endif (block disabling; other #if/#ifdef
//     conditions keep their branch text)
//   - #include, #pragma, ...       (dropped)
//   - backslash line continuations in directives and macro bodies
//
// Line numbers are preserved exactly: every consumed directive line becomes
// a blank line and expansions never add or remove newlines, so bug reports
// point at the original source lines. Expansion is bounded to avoid
// self-referential loops.
func Preprocess(src string) string {
	if strings.IndexByte(src, '#') < 0 {
		// No directive: no line to blank and no macro to expand.
		return src
	}
	lines := strings.Split(src, "\n")
	macros := make(map[string]*macro)
	out := make([]string, 0, len(lines))

	// condStack tracks #if nesting: each entry says whether the current
	// branch's text is kept.
	type cond struct {
		keep     bool
		everKept bool
	}
	var conds []cond
	keeping := func() bool {
		for _, c := range conds {
			if !c.keep {
				return false
			}
		}
		return true
	}

	for i := 0; i < len(lines); i++ {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			if keeping() {
				out = append(out, expandLine(line, macros))
			} else {
				out = append(out, "")
			}
			continue
		}
		// Join continuation lines; each consumed physical line yields one
		// blank output line to keep numbering.
		logical := trimmed
		extra := 0
		for strings.HasSuffix(logical, "\\") && i+1+extra < len(lines) {
			logical = strings.TrimSuffix(logical, "\\") + " " + strings.TrimSpace(lines[i+1+extra])
			extra++
		}
		i += extra
		out = append(out, "")
		for j := 0; j < extra; j++ {
			out = append(out, "")
		}

		directive, rest := splitDirective(logical)
		switch directive {
		case "define":
			if keeping() {
				if m, name := parseDefine(rest); m != nil {
					macros[name] = m
				}
			}
		case "undef":
			if keeping() {
				delete(macros, strings.TrimSpace(rest))
			}
		case "if", "ifdef", "ifndef":
			keep := evalCond(directive, rest, macros)
			conds = append(conds, cond{keep: keep, everKept: keep})
		case "elif":
			if len(conds) > 0 {
				top := &conds[len(conds)-1]
				if top.everKept {
					top.keep = false
				} else {
					top.keep = evalCond("if", rest, macros)
					top.everKept = top.keep
				}
			}
		case "else":
			if len(conds) > 0 {
				top := &conds[len(conds)-1]
				top.keep = !top.everKept
				top.everKept = top.everKept || top.keep
			}
		case "endif":
			if len(conds) > 0 {
				conds = conds[:len(conds)-1]
			}
		default:
			// include, pragma, error, warning, line: dropped.
		}
	}
	return strings.Join(out, "\n")
}

type macro struct {
	params   []string
	body     string
	funcLike bool
}

func splitDirective(line string) (string, string) {
	s := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "#"))
	for i := 0; i < len(s); i++ {
		if !isIdentCont(s[i]) {
			return s[:i], s[i:]
		}
	}
	return s, ""
}

func parseDefine(rest string) (*macro, string) {
	rest = strings.TrimSpace(rest)
	end := 0
	for end < len(rest) && isIdentCont(rest[end]) {
		end++
	}
	if end == 0 {
		return nil, ""
	}
	name := rest[:end]
	m := &macro{}
	tail := rest[end:]
	if strings.HasPrefix(tail, "(") {
		// Function-like: parameters up to the matching close paren.
		close := strings.IndexByte(tail, ')')
		if close < 0 {
			return nil, ""
		}
		m.funcLike = true
		for _, p := range strings.Split(tail[1:close], ",") {
			p = strings.TrimSpace(p)
			if p != "" {
				m.params = append(m.params, p)
			}
		}
		m.body = strings.TrimSpace(tail[close+1:])
	} else {
		m.body = strings.TrimSpace(tail)
	}
	return m, name
}

func evalCond(directive, rest string, macros map[string]*macro) bool {
	rest = strings.TrimSpace(rest)
	switch directive {
	case "ifdef":
		_, ok := macros[rest]
		return ok
	case "ifndef":
		_, ok := macros[rest]
		return !ok
	default: // #if
		switch rest {
		case "0":
			return false
		case "1":
			return true
		}
		if strings.HasPrefix(rest, "defined(") && strings.HasSuffix(rest, ")") {
			_, ok := macros[strings.TrimSpace(rest[len("defined("):len(rest)-1])]
			return ok
		}
		// Unknown conditions keep their text (the analysis prefers to see
		// the code, matching the paper's "compile as much as possible").
		return true
	}
}

// expandLine substitutes macros in one source line, bounded to eight rounds.
func expandLine(line string, macros map[string]*macro) string {
	if len(macros) == 0 {
		return line
	}
	for round := 0; round < 8; round++ {
		expanded, changed := expandOnce(line, macros)
		if !changed {
			return line
		}
		line = expanded
	}
	return line
}

func expandOnce(line string, macros map[string]*macro) (string, bool) {
	var b strings.Builder
	changed := false
	i := 0
	inStr, inChar := false, false
	for i < len(line) {
		ch := line[i]
		if inStr {
			b.WriteByte(ch)
			if ch == '\\' && i+1 < len(line) {
				b.WriteByte(line[i+1])
				i += 2
				continue
			}
			if ch == '"' {
				inStr = false
			}
			i++
			continue
		}
		if inChar {
			b.WriteByte(ch)
			if ch == '\'' {
				inChar = false
			}
			i++
			continue
		}
		switch {
		case ch == '"':
			inStr = true
			b.WriteByte(ch)
			i++
		case ch == '\'':
			inChar = true
			b.WriteByte(ch)
			i++
		case isIdentStart(ch):
			start := i
			for i < len(line) && isIdentCont(line[i]) {
				i++
			}
			word := line[start:i]
			m, ok := macros[word]
			if !ok {
				b.WriteString(word)
				continue
			}
			if !m.funcLike {
				b.WriteString(m.body)
				changed = true
				continue
			}
			// Function-like: require a call on the same line.
			j := i
			for j < len(line) && (line[j] == ' ' || line[j] == '\t') {
				j++
			}
			if j >= len(line) || line[j] != '(' {
				b.WriteString(word)
				continue
			}
			args, after, ok := splitArgs(line, j)
			if !ok || (len(args) != len(m.params) && !(len(m.params) == 0 && len(args) == 1 && strings.TrimSpace(args[0]) == "")) {
				b.WriteString(word)
				continue
			}
			b.WriteString(substituteParams(m, args))
			i = after
			changed = true
		default:
			b.WriteByte(ch)
			i++
		}
	}
	return b.String(), changed
}

// splitArgs parses a balanced argument list starting at the '(' at from.
func splitArgs(line string, from int) ([]string, int, bool) {
	depth := 0
	var args []string
	cur := strings.Builder{}
	i := from
	for ; i < len(line); i++ {
		ch := line[i]
		switch ch {
		case '(':
			depth++
			if depth > 1 {
				cur.WriteByte(ch)
			}
		case ')':
			depth--
			if depth == 0 {
				args = append(args, cur.String())
				return args, i + 1, true
			}
			cur.WriteByte(ch)
		case ',':
			if depth == 1 {
				args = append(args, cur.String())
				cur.Reset()
			} else {
				cur.WriteByte(ch)
			}
		default:
			cur.WriteByte(ch)
		}
	}
	return nil, from, false
}

// substituteParams replaces parameter names in the macro body at identifier
// boundaries.
func substituteParams(m *macro, args []string) string {
	body := m.body
	if len(m.params) == 0 {
		return body
	}
	var b strings.Builder
	i := 0
	for i < len(body) {
		if isIdentStart(body[i]) {
			start := i
			for i < len(body) && isIdentCont(body[i]) {
				i++
			}
			word := body[start:i]
			replaced := false
			for pi, p := range m.params {
				if word == p {
					b.WriteString(strings.TrimSpace(args[pi]))
					replaced = true
					break
				}
			}
			if !replaced {
				b.WriteString(word)
			}
			continue
		}
		b.WriteByte(body[i])
		i++
	}
	return b.String()
}
