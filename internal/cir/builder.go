package cir

// Builder constructs CIR instruction streams. It tracks a current block and
// wires destination registers' Def links, relieving callers (the minicc
// lowering pass and hand-built tests) of the bookkeeping.
type Builder struct {
	Fn  *Function
	Blk *Block
	Pos Pos
}

// NewBuilder returns a builder positioned at the entry block of fn,
// creating the block if needed.
func NewBuilder(fn *Function) *Builder {
	b := &Builder{Fn: fn}
	if len(fn.Blocks) == 0 {
		b.Blk = fn.NewBlock("entry")
	} else {
		b.Blk = fn.Blocks[len(fn.Blocks)-1]
	}
	return b
}

// SetBlock repositions the builder at the end of blk.
func (b *Builder) SetBlock(blk *Block) { b.Blk = blk }

// AtLine records the source line used for subsequently emitted instructions.
func (b *Builder) AtLine(file string, line int) { b.Pos = Pos{File: file, Line: line} }

// Sealed reports whether the current block already has a terminator
// (emission into a sealed block would be dead code).
func (b *Builder) Sealed() bool { return b.Blk.Terminator() != nil }

func (b *Builder) emit(in Instr) Instr {
	switch t := in.(type) {
	case *Alloca:
		t.Pos = b.Pos
	case *Move:
		t.Pos = b.Pos
	case *Load:
		t.Pos = b.Pos
	case *Store:
		t.Pos = b.Pos
	case *FieldAddr:
		t.Pos = b.Pos
	case *IndexAddr:
		t.Pos = b.Pos
	case *BinOp:
		t.Pos = b.Pos
	case *Cmp:
		t.Pos = b.Pos
	case *Call:
		t.Pos = b.Pos
	case *Br:
		t.Pos = b.Pos
	case *CondBr:
		t.Pos = b.Pos
	case *Ret:
		t.Pos = b.Pos
	}
	return b.Blk.Append(in)
}

// withDst is an instruction allocated together with the register it
// defines: one object where the two used to be two.
type withDst[I any] struct {
	in  I
	dst Register
}

// newDst makes *r a fresh register of b's function, defined by def.
func (b *Builder) newDst(r *Register, name string, t Type, def Instr) *Register {
	b.Fn.nextReg++
	*r = Register{ID: b.Fn.nextReg, Name: name, Typ: t, Def: def, Fn: b.Fn}
	return r
}

// Alloca emits stack allocation of elem named varName.
func (b *Builder) Alloca(varName string, elem Type) *Register {
	x := new(withDst[Alloca])
	in := &x.in
	r := b.newDst(&x.dst, varName, PointerTo(elem), in)
	*in = Alloca{Dst: r, Elem: elem, VarName: varName}
	b.Fn.markStackAddr(r)
	b.emit(in)
	return r
}

// Move emits a register copy of src.
func (b *Builder) Move(name string, src Value) *Register {
	x := new(withDst[Move])
	in := &x.in
	r := b.newDst(&x.dst, name, src.Type(), in)
	*in = Move{Dst: r, Src: src}
	b.emit(in)
	return r
}

// Load emits a load from addr.
func (b *Builder) Load(name string, addr Value) *Register {
	elem := Pointee(addr.Type())
	if elem == nil {
		elem = I64
	}
	x := new(withDst[Load])
	in := &x.in
	r := b.newDst(&x.dst, name, elem, in)
	*in = Load{Dst: r, Addr: addr}
	b.emit(in)
	return r
}

// Store emits a store of val to addr.
func (b *Builder) Store(addr, val Value) {
	b.emit(&Store{Addr: addr, Val: val})
}

// FieldAddr emits &base->field.
func (b *Builder) FieldAddr(name string, base Value, field string) *Register {
	ft := Type(I64)
	if st, ok := Pointee(base.Type()).(*StructType); ok {
		if t := st.FieldType(field); t != nil {
			ft = t
		}
	}
	x := new(withDst[FieldAddr])
	in := &x.in
	r := b.newDst(&x.dst, name, PointerTo(ft), in)
	*in = FieldAddr{Dst: r, Base: base, Field: field}
	if IsStackAddr(base) {
		b.Fn.markStackAddr(r)
	}
	b.emit(in)
	return r
}

// IndexAddr emits &base[index].
func (b *Builder) IndexAddr(name string, base Value, index Value) *Register {
	et := Type(I64)
	switch pt := Pointee(base.Type()).(type) {
	case *ArrayType:
		et = pt.Elem
	case nil:
	default:
		et = pt
	}
	x := new(withDst[IndexAddr])
	in := &x.in
	r := b.newDst(&x.dst, name, PointerTo(et), in)
	*in = IndexAddr{Dst: r, Base: base, Index: index}
	if IsStackAddr(base) {
		b.Fn.markStackAddr(r)
	}
	b.emit(in)
	return r
}

// BinOp emits x op y.
func (b *Builder) BinOp(name string, op BinaryOp, x, y Value) *Register {
	w := new(withDst[BinOp])
	in := &w.in
	r := b.newDst(&w.dst, name, x.Type(), in)
	*in = BinOp{Dst: r, Op: op, X: x, Y: y}
	b.emit(in)
	return r
}

// Cmp emits x pred y producing an i1.
func (b *Builder) Cmp(name string, pred Pred, x, y Value) *Register {
	w := new(withDst[Cmp])
	in := &w.in
	r := b.newDst(&w.dst, name, I1, in)
	*in = Cmp{Dst: r, Pred: pred, X: x, Y: y}
	b.emit(in)
	return r
}

// Call emits a direct call. resultType Void yields a nil destination.
func (b *Builder) Call(name, callee string, resultType Type, args ...Value) *Register {
	if _, isVoid := resultType.(*VoidType); isVoid || resultType == nil {
		b.emit(&Call{Callee: callee, Args: args})
		return nil
	}
	x := new(withDst[Call])
	in := &x.in
	r := b.newDst(&x.dst, name, resultType, in)
	*in = Call{Dst: r, Callee: callee, Args: args}
	b.emit(in)
	return r
}

// Br emits an unconditional branch unless the block is already sealed.
func (b *Builder) Br(target *Block) {
	if b.Sealed() {
		return
	}
	b.emit(&Br{Target: target})
}

// CondBr emits a conditional branch unless the block is already sealed.
func (b *Builder) CondBr(cond Value, yes, no *Block) {
	if b.Sealed() {
		return
	}
	b.emit(&CondBr{Cond: cond, True: yes, False: no})
}

// Ret emits a return unless the block is already sealed.
func (b *Builder) Ret(val Value) {
	if b.Sealed() {
		return
	}
	b.emit(&Ret{Val: val})
}
