package minicc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cir"
)

// TestStatementPositions parses one statement of every kind: each reports
// the line it starts on, the line a diagnostic about it names.
func TestStatementPositions(t *testing.T) {
	const src = `int f(int a) {
	{ }
	int x = 1;
	x = 2;
	if (a)
		goto out;
	while (a)
		break;
	for (;;)
		continue;
out:
	;
	switch (a) {
	default:
		x = 3;
	}
	return x;
}
`
	want := map[string]int{
		"*minicc.BlockStmt": 2, "*minicc.DeclStmt": 3, "*minicc.ExprStmt": 4,
		"*minicc.IfStmt": 5, "*minicc.GotoStmt": 6, "*minicc.WhileStmt": 7,
		"*minicc.BreakStmt": 8, "*minicc.ForStmt": 9, "*minicc.ContinueStmt": 10,
		"*minicc.LabelStmt": 11, "*minicc.EmptyStmt": 12, "*minicc.SwitchStmt": 13,
		"*minicc.ReturnStmt": 17,
	}
	f, err := Parse("a.c", src)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]int{}
	var walk func(s Stmt)
	walk = func(s Stmt) {
		if s == nil {
			return
		}
		kind := fmt.Sprintf("%T", s)
		got[kind] = append(got[kind], int(s.stmtPos().Line))
		switch s := s.(type) {
		case *BlockStmt:
			for _, c := range s.Stmts {
				walk(c)
			}
		case *IfStmt:
			walk(s.Then)
			walk(s.Else)
		case *WhileStmt:
			walk(s.Body)
		case *ForStmt:
			walk(s.Init)
			walk(s.Body)
		case *LabelStmt:
			walk(s.Stmt)
		case *SwitchStmt:
			for _, c := range s.Cases {
				for _, b := range c.Body {
					walk(b)
				}
			}
		}
	}
	for _, s := range f.Funcs[0].Body.Stmts {
		walk(s)
	}
	for kind, line := range want {
		found := false
		for _, l := range got[kind] {
			found = found || l == line
		}
		if !found {
			t.Errorf("%s at lines %v, want one at line %d", kind, got[kind], line)
		}
	}
}

// TestConditionPositions lowers expressions of every kind that has no
// branch lowering of its own as if conditions: a compare that tests each
// one carries the condition's line.
func TestConditionPositions(t *testing.T) {
	conds := []string{`x = g()`, `1`, `a ? x : 0`, `(long)p`, `x++`, `-x`, `sizeof(x)`, `"s"`, `NULL`}
	var b strings.Builder
	b.WriteString("int g(void);\nint f(int a, int x, int *p) {\n")
	for _, c := range conds {
		fmt.Fprintf(&b, "\tif (%s)\n\t\treturn 1;\n", c)
	}
	b.WriteString("\treturn 0;\n}\n")
	mod, err := LowerAll("m", map[string]string{"a.c": b.String()})
	if err != nil {
		t.Fatal(err)
	}
	at := map[int]bool{}
	mod.Funcs["f"].Instrs(func(in cir.Instr) {
		if c, ok := in.(*cir.Cmp); ok && c.Dst.Name == "cond" {
			at[in.Position().Line] = true
		}
	})
	for i, c := range conds {
		if line := 3 + 2*i; !at[line] {
			t.Errorf("if (%s): no compare at line %d", c, line)
		}
	}
}
