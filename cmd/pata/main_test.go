package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownCheckerError: a library error reaches stderr exactly once
// prefixed with "pata:" and the command exits 1 without printing a report.
func TestUnknownCheckerError(t *testing.T) {
	src := filepath.Join(t.TempDir(), "a.c")
	if err := os.WriteFile(src, []byte("int f(int x) {\n\treturn x;\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checkers", "bogus", src}, &stdout, &stderr); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	msg := stderr.String()
	if !strings.HasPrefix(msg, `pata: unknown checker "bogus"`) || strings.Count(msg, "pata:") != 1 {
		t.Errorf("stderr = %q, want one line starting `pata: unknown checker \"bogus\"`", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want empty", stdout.String())
	}
}
