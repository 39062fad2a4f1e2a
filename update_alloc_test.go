package pata_test

import (
	"testing"

	pata "repro"
	"repro/internal/oscorpus"
)

// updateMallocBudget bounds the mallocs of one Program.Update that applies
// a two-function edit to linux-like ×4. Re-lowering only the edited
// bodies and hashing their structure makes about 800; re-lowering and
// text-fingerprinting the edited files whole made about 6,900.
const updateMallocBudget = 1200

// TestUpdateAllocBudget applies editPool's edits of linux-like ×4 (seed 1,
// serve-edit's corpus) to its base Program in turn and bounds the mallocs
// of an Update.
func TestUpdateAllocBudget(t *testing.T) {
	spec := oscorpus.Scaled(oscorpus.LinuxSpec(), 4)
	spec.Seed++
	c := oscorpus.Generate(spec)
	prog, err := pata.Load(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	prog.Index()
	edits := editPool(t, c.Sources, 8)
	i := 0
	mallocs := testing.AllocsPerRun(len(edits), func() {
		_, changed, _, err := prog.Update(edits[i%len(edits)], nil)
		if err != nil || len(changed) == 0 {
			t.Fatalf("edit %d: changed %v, error %v", i%len(edits), changed, err)
		}
		i++
	})
	t.Logf("%.0f mallocs per Update", mallocs)
	if mallocs > updateMallocBudget {
		t.Errorf("an Update makes %.0f mallocs, budget %d", mallocs, updateMallocBudget)
	}
}
