// Package cirtest holds test helpers for code that builds cir modules.
package cirtest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cir"
)

// Digest hashes everything a lowered module holds: the printed functions,
// and what Module.String leaves out — structs and their fields, globals,
// the address-taken set, files, line count, each function's file,
// position and linkage, and each instruction's GID, LID and position.
func Digest(mod *cir.Module) string {
	return digest(mod, func(w io.Writer, in cir.Instr) { fmt.Fprintf(w, "%d %d", in.GID(), in.LID()) })
}

// NormalizedDigest is Digest with every instruction's GID left out, so two
// modules with the same functions digest alike however their GIDs were
// handed out. It returns an error if the GIDs are not what the engine
// relies on: nonzero, unique across the module and ascending within each
// function.
func NormalizedDigest(mod *cir.Module) (string, error) {
	seen := make(map[int]string)
	for _, fn := range mod.SortedFuncs() {
		prev := 0
		var err error
		fn.Instrs(func(in cir.Instr) {
			gid := in.GID()
			switch other, dup := seen[gid]; {
			case err != nil:
			case gid <= prev:
				err = fmt.Errorf("%s: GID %d after %d", fn.Name, gid, prev)
			case dup:
				err = fmt.Errorf("GID %d in both %s and %s", gid, other, fn.Name)
			}
			seen[gid], prev = fn.Name, gid
		})
		if err != nil {
			return "", err
		}
	}
	return digest(mod, func(w io.Writer, in cir.Instr) { fmt.Fprintf(w, "%d", in.LID()) }), nil
}

func digest(mod *cir.Module, id func(io.Writer, cir.Instr)) string {
	h := sha256.New()
	fmt.Fprint(h, mod.String())
	tags := make([]string, 0, len(mod.Structs))
	for tag := range mod.Structs {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		fmt.Fprintf(h, "struct %s {", tag)
		for _, f := range mod.Structs[tag].Fields {
			fmt.Fprintf(h, " %s %s;", f.Type, f.Name)
		}
		fmt.Fprint(h, " }\n")
	}
	globals := make([]string, 0, len(mod.Globals))
	for name := range mod.Globals {
		globals = append(globals, name)
	}
	sort.Strings(globals)
	for _, name := range globals {
		fmt.Fprintf(h, "global %s %s\n", name, mod.Globals[name].Elem)
	}
	taken := make([]string, 0, len(mod.AddressTaken))
	for name, ok := range mod.AddressTaken {
		if ok {
			taken = append(taken, name)
		}
	}
	sort.Strings(taken)
	fmt.Fprintf(h, "address-taken %s\n", strings.Join(taken, " "))
	fmt.Fprintf(h, "files %s\nlines %d\n", strings.Join(mod.Files, " "), mod.SourceLines)
	for _, name := range mod.FuncNames() {
		fn := mod.Funcs[name]
		fmt.Fprintf(h, "func %s file=%s pos=%s:%d static=%t\n", name, fn.File, fn.Pos.File, fn.Pos.Line, fn.Static)
		fn.Instrs(func(in cir.Instr) {
			p := in.Position()
			id(h, in)
			fmt.Fprintf(h, " %s:%d\n", p.File, p.Line)
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}
