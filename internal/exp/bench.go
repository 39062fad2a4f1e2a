package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/oscorpus"
)

// benchVariants are the engine configurations the pipeline bench compares.
// "defaults" is the shipped configuration: both layers available plus the
// per-entry adaptive size gate that decides whether an entry runs them. The
// remaining variants force the gate off (NoAdaptive) and run the layers
// always on or always off, so the grid shows both what the layers buy in
// explored work and what the gate buys in wall-clock.
var benchVariants = []string{"defaults", "always-on", "no-prune-no-memo"}

func benchConfig(variant string) core.Config {
	cfg := PATAConfig()
	switch variant {
	case "always-on":
		cfg.NoAdaptive = true
	case "no-prune-no-memo":
		cfg.NoAdaptive = true
		cfg.NoPrune = true
		cfg.NoMemo = true
	}
	return cfg
}

// BenchEntry is one cell of the pipeline benchmark grid: one corpus, one
// engine variant, one Stage-1 worker count. Wall-clock is the best over the
// row's interleaved rounds (see benchRow); the counters come from the last
// run (they are deterministic per configuration, so any run's counters are
// the cell's counters).
type BenchEntry struct {
	OS               string  `json:"os"`
	Variant          string  `json:"variant"`
	Workers          int     `json:"workers"`
	WallClockMS      float64 `json:"wall_clock_ms"`
	PathsExplored    int64   `json:"paths_explored"`
	StepsExecuted    int64   `json:"steps_executed"`
	PrunedBranches   int64   `json:"pruned_branches"`
	MemoHits         int64   `json:"memo_hits"`
	MemoPathsSkipped int64   `json:"memo_paths_skipped"`
	MemoStepsSkipped int64   `json:"memo_steps_skipped"`
	AdaptiveLight    int64   `json:"adaptive_entries_light,omitempty"`
	Bugs             int     `json:"bugs"`
}

// BenchReport is the schema of BENCH_pipeline.json: the full grid plus the
// aggregate reductions the work-avoidance layers buy. Wall-clock values are
// machine-dependent; the path/step counters are deterministic. Reduction
// percentages compare the forced configurations (always-on vs its
// ablations), since the adaptive defaults deliberately skip layer work that
// would not pay in wall-clock.
type BenchReport struct {
	Workload          string       `json:"workload"`
	Entries           []BenchEntry `json:"entries"`
	PathsReductionPct float64      `json:"paths_reduction_pct"`
	StepsReductionPct float64      `json:"steps_reduction_pct"`
	// DefaultsWorstRatio is max over (corpus, workers) cells of the
	// adaptive defaults' wall-clock divided by the cell's fastest forced
	// ablation — the headline number for the adaptive size gate (≤ 1.0
	// means the defaults are the fastest variant everywhere).
	DefaultsWorstRatio float64 `json:"defaults_worst_ratio"`
}

// benchRow runs one (corpus, workers) row: every variant, interleaved
// round-robin so slow machine-load drift hits all variants equally instead
// of biasing whichever happened to be measured during a busy stretch.
// Wall-clock is the per-variant best over the rounds; counters come from the
// last run (they are deterministic per configuration). Rounds adapt to the
// row's runtime — at least 3, and rows of small corpora (where a millisecond
// of scheduler jitter is a double-digit relative error) keep sampling until
// ~750ms of total measurement or 15 rounds, whichever comes first.
func benchRow(c *oscorpus.Corpus, workers int) (map[string]BenchEntry, error) {
	best := map[string]float64{}
	runs := map[string]*ToolRun{}
	total := 0.0
	for round := 0; round < 15 && (round < 3 || total < 750); round++ {
		for _, variant := range benchVariants {
			r, err := RunPATAPipelined(c, benchConfig(variant), "pata-bench", workers)
			if err != nil {
				return nil, err
			}
			ms := float64(r.Elapsed.Microseconds()) / 1000
			total += ms
			if cur, ok := best[variant]; !ok || ms < cur {
				best[variant] = ms
			}
			runs[variant] = r
		}
	}
	cell := map[string]BenchEntry{}
	for _, variant := range benchVariants {
		run := runs[variant]
		cell[variant] = BenchEntry{
			OS:               c.Spec.Name,
			Variant:          variant,
			Workers:          workers,
			WallClockMS:      best[variant],
			PathsExplored:    run.Stats.PathsExplored,
			StepsExecuted:    run.Stats.StepsExecuted,
			PrunedBranches:   run.Stats.PrunedBranches,
			MemoHits:         run.Stats.MemoHits,
			MemoPathsSkipped: run.Stats.MemoPathsSkipped,
			MemoStepsSkipped: run.Stats.MemoStepsSkipped,
			AdaptiveLight:    run.Stats.AdaptiveEntriesLight,
			Bugs:             len(run.Reports),
		}
	}
	return cell, nil
}

// BenchPipeline runs the full two-stage pipeline over every corpus — the
// four paper OSes plus the helper-heavy workload — at Stage-1 workers ∈
// {1, 4} and the three engine variants above. It collects
// wall-clock plus the work-avoidance counters. The bug sets of all variants
// are identical by construction (the equivalence tests assert it); only the
// scheduled work differs.
func BenchPipeline(w io.Writer) (*BenchReport, error) {
	rep := &BenchReport{Workload: "oscorpus"}
	var pOn, pOff, sOn, sOff int64
	corpora := append(Corpora(), oscorpus.Generate(oscorpus.HelperHeavySpec()))
	for _, c := range corpora {
		for _, workers := range []int{1, 4} {
			cell, err := benchRow(c, workers)
			if err != nil {
				return nil, err
			}
			for _, variant := range benchVariants {
				rep.Entries = append(rep.Entries, cell[variant])
			}
			fastest := 0.0
			for _, variant := range benchVariants[1:] { // forced ablations only
				if ms := cell[variant].WallClockMS; fastest == 0 || ms < fastest {
					fastest = ms
				}
			}
			if fastest > 0 {
				if r := cell["defaults"].WallClockMS / fastest; r > rep.DefaultsWorstRatio {
					rep.DefaultsWorstRatio = r
				}
			}
			if workers == 1 {
				pOn += cell["always-on"].PathsExplored
				sOn += cell["always-on"].StepsExecuted
				pOff += cell["no-prune-no-memo"].PathsExplored
				sOff += cell["no-prune-no-memo"].StepsExecuted
			}
		}
	}
	if pOff > 0 {
		rep.PathsReductionPct = 100 * float64(pOff-pOn) / float64(pOff)
	}
	if sOff > 0 {
		rep.StepsReductionPct = 100 * float64(sOff-sOn) / float64(sOff)
	}
	if w != nil {
		fmt.Fprintf(w, "pipeline bench: %.1f%% fewer paths, %.1f%% fewer steps with pruning+memo forced on (workers=1)\n",
			rep.PathsReductionPct, rep.StepsReductionPct)
		fmt.Fprintf(w, "adaptive bench: defaults at worst %.2fx the fastest forced ablation per cell\n",
			rep.DefaultsWorstRatio)
	}
	return rep, nil
}

// BenchSmoke is the CI regression gate for the adaptive size gate: on the
// zephyr-like corpus at workers=1 the shipped defaults must stay within 10%
// of the fastest forced ablation. Variants are interleaved best-of-5 to keep
// scheduler noise and load drift out of the verdict on a corpus this small.
func BenchSmoke(w io.Writer) error {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	best := map[string]float64{}
	for i := 0; i < 5; i++ {
		for _, variant := range benchVariants {
			r, err := RunPATAPipelined(c, benchConfig(variant), "pata-smoke", 1)
			if err != nil {
				return err
			}
			ms := float64(r.Elapsed.Microseconds()) / 1000
			if cur, ok := best[variant]; !ok || ms < cur {
				best[variant] = ms
			}
		}
	}
	fastest := 0.0
	for _, variant := range benchVariants[1:] {
		if ms := best[variant]; fastest == 0 || ms < fastest {
			fastest = ms
		}
	}
	if w != nil {
		fmt.Fprintf(w, "bench smoke (zephyr-like, workers=1): defaults %.1fms, fastest ablation %.1fms\n",
			best["defaults"], fastest)
	}
	if fastest > 0 && best["defaults"] > 1.1*fastest {
		return fmt.Errorf("adaptive defaults regressed: %.1fms vs fastest ablation %.1fms (>1.1x)",
			best["defaults"], fastest)
	}
	return nil
}

// WriteBenchJSON runs BenchPipeline and writes the report to path
// (conventionally BENCH_pipeline.json at the repo root).
func WriteBenchJSON(w io.Writer, path string) error {
	rep, err := BenchPipeline(w)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if w != nil {
		fmt.Fprintf(w, "wrote %s (%d entries)\n", path, len(rep.Entries))
	}
	return nil
}
