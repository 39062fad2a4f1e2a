package pata

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// censusKinds are the reasons a function may stay although no workload of
// scripts/census.sh runs it.
var censusKinds = map[string]bool{
	"error":    true, // a diagnostic or error path
	"fault":    true, // fault containment or load shedding
	"language": true, // mini-C surface the generated corpora never use
	"fallback": true, // Relower's Load fallback
	"oracle":   true, // a test oracle or fake kept in product code
	"bench":    true, // kept alive only by bench/
}

// TestCensusAllowList checks scripts/census_allow.txt without running the
// census: every line is "file function kind TestName", naming a function
// that exists in non-test Go outside bench/, or "dir package kind
// TestName", naming a directory outside bench/ that holds non-test Go; it
// gives one of the census kinds and a test that exists, and the lines are
// sorted and unique.
func TestCensusAllowList(t *testing.T) {
	f, err := os.Open(filepath.Join("scripts", "census_allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tests := testFuncs(t)
	funcs := map[string]map[string]bool{} // file -> census names of its functions
	prev := ""
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line <= prev {
			t.Errorf("line %d: %q is not sorted after %q, or repeats it", n, line, prev)
		}
		prev = line
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Errorf("line %d: %q: want four fields: file function kind TestName", n, line)
			continue
		}
		file, name, kind, test := fields[0], fields[1], fields[2], fields[3]
		if !censusKinds[kind] {
			t.Errorf("line %d: unknown kind %q", n, kind)
		}
		if !tests[test] {
			t.Errorf("line %d: no func %s in any _test.go file", n, test)
		}
		if strings.HasSuffix(file, "_test.go") || strings.HasPrefix(file, "bench/") {
			t.Errorf("line %d: %s is test code or under bench/", n, file)
			continue
		}
		if name == "package" {
			if !hasNonTestGo(t, file) {
				t.Errorf("line %d: %s is no directory of non-test Go", n, file)
			}
			continue
		}
		if funcs[file] == nil {
			funcs[file] = funcNames(t, file)
		}
		if !funcs[file][name] {
			t.Errorf("line %d: no function %s in %s", n, name, file)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// funcNames returns the functions declared in a Go file, spelled as `go tool
// covdata func` prints them: Name, Recv.Name or *Recv.Name.
func funcNames(t *testing.T, file string) map[string]bool {
	t.Helper()
	af, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Error(err)
		return nil
	}
	out := map[string]bool{}
	for _, d := range af.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			name = recvName(fd.Recv.List[0].Type) + "." + name
		}
		out[name] = true
	}
	return out
}

// hasNonTestGo reports whether dir holds a Go file that is not a test.
func hasNonTestGo(t *testing.T, dir string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			return true
		}
	}
	return false
}

func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return "*" + recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// testFuncs returns the names of every func TestX in the module's _test.go
// files, bench/ included.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		af, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range af.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
				out[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
