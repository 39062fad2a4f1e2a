package minicc

import (
	"hash/maphash"
	"maps"
	"runtime"
	"slices"
	"strings"

	"repro/internal/cir"
	"repro/internal/hmix"
	"repro/internal/par"
)

// Lowered is a module LowerProgram or Relower lowered without error,
// together with the records its passes left for each file and body: the
// functions each file declared, and per body its function, the implicit
// declarations and address-taken functions it needs and the struct types
// only it names. No AST outlives the lowering. From these records Relower
// re-lowers a few edited files against the rest, as the paper's P1
// recompiles one file and re-joins it through the function-information
// database.
type Lowered struct {
	Mod    *cir.Module
	instrs int          // Mod.NumInstrs()
	vids   int          // the value IDs Mod's globals and functions hold
	files  []*fileDecls // in sorted name order
	// structs and addrTaken are the module's struct table and address-taken
	// set as the declaration pass left them; bodyStructs holds the struct
	// types that only bodies name.
	structs     map[string]*cir.StructType
	addrTaken   map[string]bool
	bodyStructs map[string]*cir.StructType
}

// Relower lowers the program l was lowered from with the files edits names
// (file name → new text) replaced, re-lowering only the edited bodies.
// Every function of an unedited file is shared with l.Mod, pointer for
// pointer and fingerprint memo included, and keeps its GIDs and value IDs.
// So is every body of an edited file whose span hash is unchanged, when
// its file's context hash is too (see hashSpans): its bytes, its
// positions and everything of its file it reads are as before, so it
// would lower to the same function. The other bodies of the edited files
// lower into new functions, which get fresh GIDs above l.Mod.MaxGID, in
// name order, and come back verified and fingerprinted. l is only read,
// so analyses of l.Mod may run meanwhile.
//
// The module equals LowerAll's for the edited sources up to those GIDs,
// because Relower takes its fast path only where nothing else can change:
// every edited file must be a file of l that parses to the same declKey —
// the same structs, globals and function signatures, positions aside —
// and the result must lower and verify without error. Otherwise, and when
// the GID or value-ID space would outgrow maxGIDSpace times the
// instruction or value count, it returns nil, and the caller lowers the
// sources from scratch (which also gives the error, or renumbers the
// GIDs).
func (l *Lowered) Relower(edits map[string]string) *Lowered {
	names, parsed, keys, errs := parseFiles(edits)

	mod := cir.NewModule(l.Mod.Name)
	mod.Funcs = make(map[string]*cir.Function, len(l.Mod.Funcs))
	mod.Structs = maps.Clone(l.structs)
	mod.Globals = maps.Clone(l.Mod.Globals)
	mod.AddressTaken = maps.Clone(l.addrTaken)
	fe := &frontend{mod: mod, bodyStructs: maps.Clone(l.bodyStructs)}
	files := slices.Clone(l.files)
	var (
		edited []*fileDecls
		units  []*unit         // the edited bodies
		fresh  []*cir.Function // and their functions
		instrs = l.instrs
		vids   = l.vids
	)
	for i, f := range parsed {
		j, ok := slices.BinarySearchFunc(files, names[i], func(d *fileDecls, name string) int {
			return strings.Compare(d.name, name)
		})
		if errs[i] != nil || !ok || keys[i] != files[j].key {
			return nil
		}
		old := files[j]
		// The declaration pass would give this file the same records; only
		// positions, which its functions carry, can differ.
		d := &fileDecls{name: old.name, lines: f.Lines, key: old.key, ctx: f.ctx, enums: fileEnums(f),
			statics: old.statics, declared: old.declared, declFD: old.declFD}
		for k, name := range old.declared {
			if fn := l.Mod.Funcs[name]; fn.IsDecl() && fn.File == d.name {
				mod.Funcs[name] = &cir.Function{Name: name, Typ: fn.Typ, Pos: funcPos(d.name, f.Funcs[old.declFD[k]]),
					File: d.name, Static: fn.Static}
			}
		}
		k := 0
		for _, fd := range f.Funcs {
			if fd.Body == nil {
				continue
			}
			ou := old.units[k]
			k++
			if ou.fn != nil && f.ctx == old.ctx && fd.span == ou.span {
				// The body lowers as before: its bytes and positions are
				// unchanged, and so is everything of its file it reads.
				// Its record is copied, so that no record keeps an earlier
				// version's file records alive.
				u := *ou
				u.file = d
				d.units = append(d.units, &u)
				mod.Funcs[u.fn.Name] = u.fn
				continue
			}
			u := &unit{file: d, idx: ou.idx, fd: fd, span: fd.span, created: ou.created}
			if ou.fn != nil {
				instrs -= ou.fn.NumInstrs()
				vids -= ou.fn.NumRegs()
				u.fn = &cir.Function{Name: ou.fn.Name, Typ: ou.fn.Typ, Pos: funcPos(d.name, fd), File: d.name, Static: ou.fn.Static}
				fe.names.newBlock(u.fn, bkEntry)
				mod.Funcs[u.fn.Name] = u.fn
				fresh = append(fresh, u.fn)
			}
			d.units = append(d.units, u)
			units = append(units, u)
		}
		files[j] = d
		edited = append(edited, d)
	}
	// Every other function the declaration pass made is shared.
	share := func(name string) {
		if _, ok := mod.Funcs[name]; !ok {
			mod.Funcs[name] = l.Mod.Funcs[name]
		}
	}
	for _, d := range files {
		for _, name := range d.declared {
			share(name)
		}
		for _, u := range d.units {
			if u.created {
				share(u.fn.Name)
			}
		}
	}

	fe.lowerBodies(units)
	if fe.finish(files) != nil {
		return nil
	}
	added, addedVIDs := 0, 0
	for _, fn := range fresh {
		added += fn.NumInstrs()
		addedVIDs += fn.NumRegs()
	}
	instrs += added
	vids += addedVIDs
	if l.Mod.MaxGID()+added > maxGIDSpace*instrs || l.Mod.MaxVID()+addedVIDs > maxGIDSpace*vids {
		return nil
	}
	slices.SortFunc(fresh, func(a, b *cir.Function) int { return strings.Compare(a.Name, b.Name) })
	mod.ExtendGIDs(l.Mod, fresh)
	if verify(fresh) != nil {
		return nil
	}
	// Fingerprint the new functions on the pool, rather than one after
	// another when the caller indexes the module.
	par.For(len(fresh), runtime.GOMAXPROCS(0), func(_, i int) { fresh[i].Fingerprint() })
	release(edited)
	return &Lowered{Mod: mod, instrs: instrs, vids: vids, files: files, structs: l.structs, addrTaken: l.addrTaken, bodyStructs: fe.bodyStructs}
}

// release drops what only lowering needed from files' records once their
// module is complete: the enums, which only the file's own bodies read, and
// the errors, which are all nil.
func release(files []*fileDecls) {
	for _, d := range files {
		d.enums, d.errs = nil, nil
		for _, u := range d.units {
			u.errs = nil
		}
	}
}

// maxGIDSpace bounds a Relowered module's GID space, as a multiple of its
// instruction count, and its value-ID space, as a multiple of its register
// and global count: every edit adds its functions' GIDs and value IDs above
// the old ones, and a module that would outgrow either bound is lowered
// from scratch, which numbers both densely again. Each Stage-1 worker keeps
// tables sized by these spaces (reused across analyses, not allocated per
// run), so a larger bound costs memory for as long as the host runs, and a
// smaller one costs more full lowerings.
const maxGIDSpace = 4

// spanSeed keys the span and context hashes, which live only in memory.
var spanSeed = maphash.MakeSeed()

// hashSpans hashes what Relower compares to keep a body of an edited file.
// A definition's span runs from its name to the next top-level token; its
// hash covers those preprocessed bytes (parameter names and body, with
// every macro use expanded) and the name's line and column, which fix the
// position of every token in the span. The file's context hash covers the
// bytes outside every span, gap by gap: the typedefs and enums a body
// reads but declKey leaves out, and every declaration.
func hashSpans(f *File, text string) {
	ctx, last := uint64(0), 0
	for _, fd := range f.Funcs {
		if fd.Body == nil {
			continue
		}
		lo := min(max(int(fd.off), last), len(text))
		hi := min(max(int(fd.end), lo), len(text))
		ctx = hmix.Mix3(ctx, maphash.String(spanSeed, text[last:lo]), uint64(lo-last))
		fd.span = hmix.Mix4(maphash.String(spanSeed, text[lo:hi]), uint64(hi-lo), uint64(fd.Pos.Line), uint64(fd.Pos.Col))
		last = hi
	}
	f.ctx = hmix.Mix3(ctx, maphash.String(spanSeed, text[last:]), uint64(len(text)-last))
}

// funcPos is the position of the function fd declares in file.
func funcPos(file string, fd *FuncDecl) cir.Pos { return cir.Pos{File: file, Line: int(fd.Pos.Line)} }

// declKey hashes what the declaration pass reads of f: its structs, globals
// and function signatures, in source order, with the address-taken names
// of global initializers. It leaves out positions, parameter names and
// enums, which only f's own bodies read. Two versions of a file with the
// same key leave the declaration pass's tables exactly alike.
func declKey(f *File) uint64 {
	typ := func(h uint64, t TypeExpr) uint64 {
		return hmix.Mix4(h, hmix.Str(t.Base), uint64(t.Ptr)<<1|bit(t.IsStruct), uint64(t.ArrayLen))
	}
	h := uint64(len(f.Structs))
	for _, sd := range f.Structs {
		h = hmix.Mix3(h, hmix.Str(sd.Name), uint64(len(sd.Fields)))
		for _, fd := range sd.Fields {
			h = typ(hmix.Mix2(h, hmix.Str(fd.Name)), fd.Type)
		}
	}
	h = hmix.Mix2(h, uint64(len(f.Globals)))
	for _, g := range f.Globals {
		h = typ(hmix.Mix3(h, hmix.Str(g.Name), uint64(len(g.InitNames))), g.Type)
		for _, n := range g.InitNames {
			h = hmix.Mix2(h, hmix.Str(n))
		}
	}
	h = hmix.Mix2(h, uint64(len(f.Funcs)))
	for _, fd := range f.Funcs {
		flags := bit(fd.Static) | bit(fd.Variadic)<<1 | bit(fd.Body != nil)<<2
		h = typ(hmix.Mix4(h, hmix.Str(fd.Name), flags, uint64(len(fd.Params))), fd.Result)
		for _, p := range fd.Params {
			h = typ(h, p.Type)
		}
	}
	return h
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
