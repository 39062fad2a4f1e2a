// Package report renders bug reports and the experiment tables. The bug
// format follows the paper's P3 output: bug type, the two problematic
// instructions (origin and bug point) with source positions, the enclosing
// and entry functions, and the alias set of the affected object when
// available.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/cir"
	"repro/internal/core"
)

// WriteBugs renders validated bugs, ordered deterministically.
func WriteBugs(w io.Writer, bugs []*core.Bug) {
	for i, b := range core.SortedBugs(bugs) {
		fmt.Fprintf(w, "[%d] %s\n", i+1, Title(b))
		WriteBugDetail(w, b)
	}
}

// Title returns a one-line summary of a bug.
func Title(b *core.Bug) string {
	pos := b.BugInstr.Position()
	return fmt.Sprintf("%s at %s in %s()", b.Type, pos, b.InFn)
}

// WriteBugDetail renders the indented detail block of one bug.
func WriteBugDetail(w io.Writer, b *core.Bug) {
	fmt.Fprintf(w, "    entry: %s()", b.EntryFn)
	if b.Category != "" {
		fmt.Fprintf(w, "  [%s]", b.Category)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "    bug point: %s\n", b.BugInstr)
	if origin := OriginInstr(b); origin != nil {
		fmt.Fprintf(w, "    origin: %s (%s)\n", origin, origin.Position())
	}
	if len(b.AliasSet) > 0 {
		fmt.Fprintf(w, "    alias set: %s\n", strings.Join(b.AliasSet, ", "))
	}
	if len(b.Trigger) > 0 {
		fmt.Fprintf(w, "    trigger: %s\n", strings.Join(b.Trigger, ", "))
	}
	if b.Validated {
		fmt.Fprintf(w, "    path: %d steps, validated feasible\n", len(b.Path))
	} else {
		fmt.Fprintf(w, "    path: %d steps\n", len(b.Path))
	}
}

// OriginInstr finds the origin instruction (the state-changing half of the
// paper's repeated-bug key) on the bug's recorded path.
func OriginInstr(b *core.Bug) cir.Instr {
	for _, st := range b.Path {
		if st.Instr.GID() == b.OriginGID {
			return st.Instr
		}
	}
	return nil
}

// WriteStats renders the engine counters, including the parallel
// scheduler's per-stage wall-clock, work-steal, and verdict-cache counters
// (cmd/pata -stats uses this).
func WriteStats(w io.Writer, st core.Stats) {
	fmt.Fprintf(w, "statistics:\n")
	fmt.Fprintf(w, "  entry functions:     %d\n", st.EntryFunctions)
	fmt.Fprintf(w, "  paths explored:      %d\n", st.PathsExplored)
	fmt.Fprintf(w, "  steps executed:      %d\n", st.StepsExecuted)
	fmt.Fprintf(w, "  typestates:          %d (unaware: %d)\n", st.Typestates, st.TypestatesUnaware)
	fmt.Fprintf(w, "  SMT constraints:     %d (unaware: %d)\n", st.Constraints, st.ConstraintsUnaware)
	fmt.Fprintf(w, "  repeated dropped:    %d\n", st.RepeatedDropped)
	fmt.Fprintf(w, "  false dropped:       %d\n", st.FalseDropped)
	fmt.Fprintf(w, "  verdict cache:       %d hits, %d misses, %d evicted\n",
		st.ValidationCacheHits, st.ValidationCacheMisses, st.ValidationCacheEvictions)
	fmt.Fprintf(w, "  stage-2 batching:    %d screened, %d fallbacks, %d prefix atoms shared, %d backend disagreements\n",
		st.BatchedSolves, st.BatchFallbacks, st.PrefixAtomsShared, st.BackendDisagreements)
	fmt.Fprintf(w, "  incremental cache:   %d entries hit, %d missed (steps skipped: %d)\n",
		st.CacheEntriesHit, st.CacheEntriesMiss, st.CacheStepsSkipped)
	fmt.Fprintf(w, "  fault isolation:     %d degraded, %d retried, %d deadline trips, %d panics contained\n",
		st.EntriesDegraded, st.EntriesRetried, st.DeadlineTrips, st.PanicsContained)
	fmt.Fprintf(w, "  solver self-time:    %v\n", time.Duration(st.SolverNanos))
	fmt.Fprintf(w, "  work steals:         %d\n", st.WorkSteals)
	fmt.Fprintf(w, "  analysis time:       %v\n", st.AnalysisTime)
	fmt.Fprintf(w, "  validation time:     %v\n", st.ValidationTime)
}

// WriteIncomplete renders the incomplete-analysis section: every entry
// whose exploration stopped early (timeout, contained panic, budget trip,
// or run cancellation), with the degrade-ladder rung whose results the
// report reflects. Healthy-entry findings above this section are exact;
// for the entries listed here the report is a lower bound — absence of a
// bug in a degraded entry proves nothing.
func WriteIncomplete(w io.Writer, inc []core.IncompleteEntry) {
	if len(inc) == 0 {
		return
	}
	fmt.Fprintf(w, "incomplete analysis (%d entries):\n", len(inc))
	for _, e := range inc {
		fmt.Fprintf(w, "  %s(): %s", e.Entry, e.Reason)
		switch {
		case e.Rung > 0:
			fmt.Fprintf(w, ", completed at degrade rung %d", e.Rung)
		case e.Rung < 0:
			fmt.Fprintf(w, ", no attempt completed")
		}
		if e.Detail != "" {
			fmt.Fprintf(w, " (%s)", e.Detail)
		}
		fmt.Fprintln(w)
	}
}

// Summary aggregates bug counts by type.
type Summary struct {
	Total  int
	ByType map[string]int
}

// Summarize counts bugs per type.
func Summarize(bugs []*core.Bug) Summary {
	s := Summary{ByType: make(map[string]int)}
	for _, b := range bugs {
		s.Total++
		s.ByType[string(b.Type)]++
	}
	return s
}

// String renders "12 (8/3/1)"-style counts for the given type order.
func (s Summary) String() string {
	keys := make([]string, 0, len(s.ByType))
	for k := range s.ByType {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, s.ByType[k]))
	}
	return fmt.Sprintf("%d (%s)", s.Total, strings.Join(parts, " "))
}

// Counts renders N (a/b/c) for a fixed type order, the paper's table cell
// format.
func Counts(bugs []*core.Bug, order ...string) string {
	s := Summarize(bugs)
	parts := make([]string, 0, len(order))
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%d", s.ByType[k]))
	}
	return fmt.Sprintf("%d (%s)", s.Total, strings.Join(parts, "/"))
}

// Table renders an aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table with column alignment.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					b.WriteString(" ")
				}
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	var seps []string
	for _, wd := range widths {
		seps = append(seps, strings.Repeat("-", wd))
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
}

// WritePath renders a bug's witness path as the sequence of distinct source
// lines it traverses, with branch directions — the human-readable "how do I
// get there" of the paper's readable reports.
func WritePath(w io.Writer, b *core.Bug) {
	fmt.Fprintf(w, "    witness path (%d steps):\n", len(b.Path))
	lastLine := -1
	lastFile := ""
	for _, st := range b.Path {
		pos := st.Instr.Position()
		if !pos.IsValid() {
			continue
		}
		_, isBranch := st.Instr.(*cir.CondBr)
		// One line per source line, except branches, which always print so
		// their direction is visible.
		if !isBranch && pos.Line == lastLine && pos.File == lastFile {
			continue
		}
		lastLine, lastFile = pos.Line, pos.File
		marker := " "
		if isBranch {
			if st.Taken {
				marker = "T"
			} else {
				marker = "F"
			}
		}
		fn := ""
		if blk := st.Instr.Block(); blk != nil && blk.Fn != nil {
			fn = blk.Fn.Name
		}
		fmt.Fprintf(w, "      %s %s:%d  (%s)\n", marker, pos.File, pos.Line, fn)
	}
}
