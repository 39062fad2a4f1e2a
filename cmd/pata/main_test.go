package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	pata "repro"
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

// TestValidateBackendFlagGone: Stage 2 has one decision procedure, so
// -validate-backend is an unknown flag and the command exits 2.
func TestValidateBackendFlagGone(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-validate-backend", "x", "f.c"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -validate-backend") {
		t.Errorf("stderr = %q, want an unknown-flag error", stderr.String())
	}
}

// TestCheckersHelpListsEveryName: the -checkers help names every checker
// the library accepts.
func TestCheckersHelpListsEveryName(t *testing.T) {
	var stdout, stderr bytes.Buffer
	run([]string{"-h"}, &stdout, &stderr)
	var line string
	for _, l := range strings.Split(stderr.String(), "\n") {
		if strings.Contains(l, "comma-separated checkers") {
			line = l
		}
	}
	for _, name := range pata.CheckerNames() {
		if !strings.Contains(line, name) {
			t.Errorf("-checkers help %q does not list %q", line, name)
		}
	}
}
