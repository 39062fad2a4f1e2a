// Package slab hands out many small values of one type from a few chunks,
// so a set of objects that live and die together costs an allocation per
// chunk rather than one per object. The frontend takes its AST nodes
// and a function's blocks and constants from slabs.
package slab

// Of hands out values of T from chunks of a quarter of the slots it has
// allocated so far, at least 4 and at most 32: a slab serving thousands of
// values allocates once per 32, and one serving a handful, such as a
// function's blocks, leaves few slots unused. A chunk stays alive as long
// as any value handed out of it.
type Of[T any] struct {
	free  []T
	slots int // allocated so far
}

func (s *Of[T]) grow(need int) {
	s.free = make([]T, max(min(max(s.slots/4, 4), 32), need))
	s.slots += len(s.free)
}

// New returns a pointer to a fresh copy of v.
func (s *Of[T]) New(v T) *T {
	if len(s.free) == 0 {
		s.grow(1)
	}
	p := &s.free[0]
	*p = v
	s.free = s.free[1:]
	return p
}

// Clone returns a copy of items in slab memory, nil when items is empty;
// appending to the copy reallocates it.
func (s *Of[T]) Clone(items []T) []T {
	n := len(items)
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		s.grow(n)
	}
	out := s.free[:n:n]
	copy(out, items)
	s.free = s.free[n:]
	return out
}
