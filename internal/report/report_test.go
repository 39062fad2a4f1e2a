package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/pathval"
)

func someBugs(t *testing.T) []*core.Bug {
	t.Helper()
	mod, err := minicc.LowerAll("m", map[string]string{"dev.c": `
struct dev { int flags; };
int probe(struct dev *d) {
	if (!d)
		return d->flags;
	return 0;
}
int leak(int n) {
	char *p = (char *)malloc(n);
	if (!p)
		return -12;
	if (n > 10)
		return -1;
	free(p);
	return 0;
}`})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{}
	pathval.New().Install(&cfg)
	return core.RunParallel(mod, cfg, 1).Bugs
}

func TestWriteBugs(t *testing.T) {
	bugs := someBugs(t)
	if len(bugs) < 2 {
		t.Fatalf("bugs = %d", len(bugs))
	}
	var sb strings.Builder
	WriteBugs(&sb, bugs)
	out := sb.String()
	for _, want := range []string{"NPD at dev.c:5", "ML at dev.c:13", "bug point:", "origin:", "validated feasible"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestOriginInstr(t *testing.T) {
	bugs := someBugs(t)
	for _, b := range bugs {
		origin := OriginInstr(b)
		if origin == nil {
			t.Errorf("no origin on path for %s", Title(b))
			continue
		}
		if origin.GID() != b.OriginGID {
			t.Errorf("origin GID mismatch")
		}
	}
}

func TestSummarize(t *testing.T) {
	bugs := someBugs(t)
	s := Summarize(bugs)
	if s.Total != len(bugs) {
		t.Errorf("total = %d", s.Total)
	}
	if s.ByType["NPD"] == 0 || s.ByType["ML"] == 0 {
		t.Errorf("by type = %v", s.ByType)
	}
	if !strings.Contains(s.String(), "NPD=") {
		t.Errorf("summary string = %q", s.String())
	}
}

func TestCounts(t *testing.T) {
	bugs := someBugs(t)
	cell := Counts(bugs, "NPD", "UVA", "ML")
	if !strings.HasPrefix(cell, "2 (1/0/1)") {
		t.Errorf("counts cell = %q", cell)
	}
}

func TestTableAlignment(t *testing.T) {
	tbl := &Table{Header: []string{"A", "LongHeader", "C"}}
	tbl.AddRow("aaaa", "b", "c")
	tbl.AddRow("x", "yy", "zzz")
	var sb strings.Builder
	tbl.Write(&sb)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Separator row has dashes matching header widths.
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("separator = %q", lines[1])
	}
	// Columns align: "LongHeader" column starts at the same offset in all rows.
	off := strings.Index(lines[0], "LongHeader")
	if strings.Index(lines[2], "b") != off {
		t.Errorf("column misaligned:\n%s", sb.String())
	}
}

func TestWritePath(t *testing.T) {
	bugs := someBugs(t)
	var sb strings.Builder
	WritePath(&sb, bugs[0])
	out := sb.String()
	if !strings.Contains(out, "witness path") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "dev.c:") {
		t.Errorf("missing source lines: %q", out)
	}
	// Branch steps carry a direction marker.
	if !strings.Contains(out, "T ") && !strings.Contains(out, "F ") {
		t.Errorf("missing branch markers: %q", out)
	}
}

func TestWriteIncomplete(t *testing.T) {
	var sb strings.Builder
	WriteIncomplete(&sb, nil)
	if sb.Len() != 0 {
		t.Errorf("empty incomplete list produced output: %q", sb.String())
	}
	inc := []core.IncompleteEntry{
		{Entry: "probe", Reason: core.ReasonTimeout, Rung: 1},
		{Entry: "leak", Reason: core.ReasonPanic, Rung: -1, Detail: "index out of range"},
		{Entry: "init", Reason: core.ReasonBudget, Rung: 0},
	}
	WriteIncomplete(&sb, inc)
	out := sb.String()
	for _, want := range []string{
		"incomplete analysis (3 entries):",
		"probe(): timeout, completed at degrade rung 1",
		"leak(): panic, no attempt completed (index out of range)",
		"init(): budget\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("incomplete section missing %q:\n%s", want, out)
		}
	}
}

func TestWriteStatsFaultLine(t *testing.T) {
	var sb strings.Builder
	WriteStats(&sb, core.Stats{EntriesDegraded: 2, EntriesRetried: 3, DeadlineTrips: 4, PanicsContained: 1})
	if !strings.Contains(sb.String(), "fault isolation:     2 degraded, 3 retried, 4 deadline trips, 1 panics contained") {
		t.Errorf("stats missing fault-isolation line:\n%s", sb.String())
	}
}
