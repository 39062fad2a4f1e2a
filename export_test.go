package pata

// derivedFrom reports whether Update made p from prev on its Relower path,
// which derives p's call graph from prev's: whether p shares a function
// with prev, pointer for pointer. (An edit to every file of a program
// shares none; the tests always leave a file alone.)
func (p *Program) derivedFrom(prev *Program) bool {
	for name, fn := range p.low.Mod.Funcs {
		if prev.low.Mod.Funcs[name] == fn {
			return true
		}
	}
	return false
}
