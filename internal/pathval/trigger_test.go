package pathval_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
)

// TestTriggerValuesDeterministic validates the validate-heavy corpus
// repeatedly and requires every bug's rendered trigger values to match the
// first run's. Its clusters reassign locals such as rc along one path, so
// several alias classes offer the same source name for a trigger; which one
// names the value must not depend on map iteration order.
func TestTriggerValuesDeterministic(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ValidationHeavySpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		cfg := core.Config{}
		pathval.New().Install(&cfg)
		var sb strings.Builder
		for _, b := range core.SortedBugs(core.NewEngine(mod, cfg).Run().Bugs) {
			pos := b.BugInstr.Position()
			fmt.Fprintf(&sb, "%s %s:%d %s\n", b.Type, pos.File, pos.Line, strings.Join(b.Trigger, ", "))
		}
		return sb.String()
	}
	want := render()
	if !strings.Contains(want, " = ") {
		t.Fatalf("no trigger values rendered; the corpus no longer exercises them:\n%s", want)
	}
	for i := 1; i < 6; i++ {
		if got := render(); got != want {
			t.Fatalf("run %d rendered different triggers:\n--- first\n%s\n--- run %d\n%s", i, want, i, got)
		}
	}
}
