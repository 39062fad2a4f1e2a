// corpusscan generates the four synthetic OS corpora, runs PATA and the
// baseline stand-ins over each, and scores everything against the known
// ground truth — a miniature of the paper's Tables 5 and 8.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/baselines/lint"
	"repro/internal/exp"
	"repro/internal/oscorpus"
	"repro/internal/report"
)

func main() {
	t := &report.Table{Header: []string{"OS", "Tool", "Found", "Real", "FP%"}}
	for _, spec := range oscorpus.AllSpecs() {
		c := oscorpus.Generate(spec)
		runs := []func() (*exp.ToolRun, error){
			func() (*exp.ToolRun, error) { return exp.RunPATA(c, exp.PATAConfig(), "pata", 0) },
			func() (*exp.ToolRun, error) { return exp.RunPATA(c, exp.NAConfig(), "pata-na", 0) },
			func() (*exp.ToolRun, error) { return exp.RunLintTool(c, lint.Cppcheck{}) },
			func() (*exp.ToolRun, error) { return exp.RunLintTool(c, lint.Smatch{}) },
			func() (*exp.ToolRun, error) { return exp.RunSVFNull(c) },
			func() (*exp.ToolRun, error) { return exp.RunSaberLike(c) },
		}
		for _, run := range runs {
			tr, err := run()
			if err != nil {
				log.Fatal(err)
			}
			t.AddRow(spec.Name, tr.Tool,
				fmt.Sprintf("%d", tr.Score.Found),
				fmt.Sprintf("%d/%d", tr.Score.Real, len(c.Truth)),
				fmt.Sprintf("%.0f", tr.Score.FPRate()))
		}
	}
	fmt.Println("== corpus scan: PATA and baselines vs ground truth ==")
	t.Write(os.Stdout)
	fmt.Println("\n(Real column is matched-bugs / seeded-bugs; shapes mirror the paper's Tables 5-8.)")
}
