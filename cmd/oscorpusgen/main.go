// Command oscorpusgen writes a synthetic OS corpus to disk for inspection
// or for analyzing with cmd/pata.
//
// Usage:
//
//	oscorpusgen -os linux|zephyr|riot|tencent|helper-heavy -out DIR [-truth]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/oscorpus"
)

func main() {
	osName := flag.String("os", "linux", "which corpus: linux, zephyr, riot, tencent, helper-heavy")
	out := flag.String("out", "", "output directory (required)")
	truth := flag.Bool("truth", false, "also write ground-truth.txt")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("oscorpusgen: ")
	if *out == "" {
		fmt.Fprintln(os.Stderr, "usage: oscorpusgen -os linux -out DIR")
		os.Exit(2)
	}

	var spec oscorpus.OSSpec
	switch *osName {
	case "linux":
		spec = oscorpus.LinuxSpec()
	case "zephyr":
		spec = oscorpus.ZephyrSpec()
	case "riot":
		spec = oscorpus.RIOTSpec()
	case "tencent":
		spec = oscorpus.TencentSpec()
	case "helper-heavy":
		spec = oscorpus.HelperHeavySpec()
	default:
		fmt.Fprintf(os.Stderr, "oscorpusgen: unknown OS %q\n", *osName)
		os.Exit(2)
	}

	c := oscorpus.Generate(spec)
	for name, src := range c.Sources {
		path := filepath.Join(*out, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *truth {
		f, err := os.Create(filepath.Join(*out, "ground-truth.txt"))
		if err != nil {
			log.Fatal(err)
		}
		for _, g := range c.Truth {
			fmt.Fprintf(f, "%s %s %s:%d category=%s interproc=%v alias=%v\n",
				g.ID, g.Type, g.File, g.Line, g.Category, g.Interprocedural, g.NeedsAlias)
		}
		for _, tr := range c.Traps {
			fmt.Fprintf(f, "%s TRAP(%s) %s %s:%d\n", tr.ID, tr.Mechanism, tr.Type, tr.File, tr.Line)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d files (%d lines, %d seeded bugs, %d traps) to %s\n",
		c.Files(), c.Lines, len(c.Truth), len(c.Traps), *out)
}
