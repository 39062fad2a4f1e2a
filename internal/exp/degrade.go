package exp

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/report"
)

// DegradeRow is one fault-injection scenario of the degrade table.
type DegradeRow struct {
	Scenario         string
	Bugs             int
	HealthyIdentical bool // bug set outside the injected entries matches baseline
	Incomplete       int
	Degraded         int
	Retried          int
	PanicsContained  int
	DeadlineTrips    int64
}

// degradeScenario names a fault plan over the two injected entries.
type degradeScenario struct {
	name string
	hook func(entry string, rung int) *core.FaultSpec
}

// DegradeTable measures the blast radius of contained faults: the two
// largest entry functions of the largest corpus are injected with panics
// and per-step slowdowns, and the table reports how many findings survive
// and whether the rest of the corpus is untouched. It is the experiment
// behind DESIGN.md §8's claim that a degraded entry is isolated — every
// scenario must keep the healthy bug set byte-identical to the baseline.
func DegradeTable(w io.Writer) ([]DegradeRow, error) {
	c := Corpora()[0] // linux-like, the largest
	mod, err := lowerCorpus(c)
	if err != nil {
		return nil, err
	}

	// Inject into the two largest entries: they carry the most candidates,
	// so losing them is the worst case for partial-result quality.
	entries := callgraph.Build(mod).EntryFunctions()
	sort.Slice(entries, func(i, j int) bool {
		if a, b := entries[i].NumInstrs(), entries[j].NumInstrs(); a != b {
			return a > b
		}
		return entries[i].Name < entries[j].Name
	})
	if len(entries) < 2 {
		return nil, fmt.Errorf("degrade: corpus has %d entries, need 2", len(entries))
	}
	sickA, sickB := entries[0].Name, entries[1].Name
	sick := map[string]bool{sickA: true, sickB: true}

	const slow = 25 * time.Millisecond
	scenarios := []degradeScenario{
		{"none", nil},
		{"panic@rung0", func(entry string, rung int) *core.FaultSpec {
			if sick[entry] && rung == 0 {
				return &core.FaultSpec{Panic: true}
			}
			return nil
		}},
		{"slow+timeout", func(entry string, rung int) *core.FaultSpec {
			if sick[entry] {
				return &core.FaultSpec{Slow: slow}
			}
			return nil
		}},
		{"panic+slow", func(entry string, rung int) *core.FaultSpec {
			switch entry {
			case sickA:
				if rung == 0 {
					return &core.FaultSpec{Panic: true}
				}
			case sickB:
				return &core.FaultSpec{Slow: slow}
			}
			return nil
		}},
	}

	healthySigs := func(res *core.Result) map[string]int {
		m := make(map[string]int)
		for _, b := range res.Bugs {
			if !sick[b.EntryFn] {
				m[bugSig(b)]++
			}
		}
		return m
	}

	var baseline map[string]int
	var rows []DegradeRow
	for _, sc := range scenarios {
		cfg := PATAConfig()
		cfg.EntryTimeout = time.Second
		cfg.FaultHook = sc.hook
		res := core.RunParallelCtx(baseCtx, mod, cfg, 0)
		if sc.hook == nil {
			baseline = healthySigs(res)
		}
		rows = append(rows, DegradeRow{
			Scenario:         sc.name,
			Bugs:             len(res.Bugs),
			HealthyIdentical: sigsEqual(healthySigs(res), baseline),
			Incomplete:       len(res.Incomplete),
			Degraded:         res.Stats.EntriesDegraded,
			Retried:          res.Stats.EntriesRetried,
			PanicsContained:  res.Stats.PanicsContained,
			DeadlineTrips:    res.Stats.DeadlineTrips,
		})
	}

	fmt.Fprintf(w, "Degrade ladder: fault injection into the 2 largest %s entries (%s, %s)\n",
		c.Spec.Name, sickA, sickB)
	t := &report.Table{Header: []string{
		"Scenario", "Bugs", "Healthy identical", "Incomplete", "Degraded",
		"Retried", "Panics contained", "Deadline trips",
	}}
	for _, r := range rows {
		t.AddRow(r.Scenario, fmt.Sprintf("%d", r.Bugs), fmt.Sprintf("%v", r.HealthyIdentical),
			fmt.Sprintf("%d", r.Incomplete), fmt.Sprintf("%d", r.Degraded),
			fmt.Sprintf("%d", r.Retried), fmt.Sprintf("%d", r.PanicsContained),
			fmt.Sprintf("%d", r.DeadlineTrips))
	}
	t.Write(w)
	return rows, nil
}

func bugSig(b *core.Bug) string {
	pos := b.BugInstr.Position()
	return fmt.Sprintf("%s:%s:%d:%s", b.Type, pos.File, pos.Line, b.EntryFn)
}

func sigsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
