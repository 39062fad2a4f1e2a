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

// Alloca emits stack allocation of elem named varName.
func (b *Builder) Alloca(varName string, elem Type) *Register {
	r := b.Fn.NewReg(varName, PointerTo(elem))
	in := &Alloca{Dst: r, Elem: elem, VarName: varName}
	r.Def = in
	b.Fn.markStackAddr(r)
	b.emit(in)
	return r
}

// Move emits a register copy of src.
func (b *Builder) Move(name string, src Value) *Register {
	r := b.Fn.NewReg(name, src.Type())
	in := &Move{Dst: r, Src: src}
	r.Def = in
	b.emit(in)
	return r
}

// Load emits a load from addr.
func (b *Builder) Load(name string, addr Value) *Register {
	elem := Pointee(addr.Type())
	if elem == nil {
		elem = I64
	}
	r := b.Fn.NewReg(name, elem)
	in := &Load{Dst: r, Addr: addr}
	r.Def = in
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
	r := b.Fn.NewReg(name, PointerTo(ft))
	in := &FieldAddr{Dst: r, Base: base, Field: field}
	r.Def = in
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
	r := b.Fn.NewReg(name, PointerTo(et))
	in := &IndexAddr{Dst: r, Base: base, Index: index}
	r.Def = in
	if IsStackAddr(base) {
		b.Fn.markStackAddr(r)
	}
	b.emit(in)
	return r
}

// BinOp emits x op y.
func (b *Builder) BinOp(name string, op BinaryOp, x, y Value) *Register {
	r := b.Fn.NewReg(name, x.Type())
	in := &BinOp{Dst: r, Op: op, X: x, Y: y}
	r.Def = in
	b.emit(in)
	return r
}

// Cmp emits x pred y producing an i1.
func (b *Builder) Cmp(name string, pred Pred, x, y Value) *Register {
	r := b.Fn.NewReg(name, I1)
	in := &Cmp{Dst: r, Pred: pred, X: x, Y: y}
	r.Def = in
	b.emit(in)
	return r
}

// Call emits a direct call. resultType Void yields a nil destination.
func (b *Builder) Call(name, callee string, resultType Type, args ...Value) *Register {
	var r *Register
	in := &Call{Callee: callee, Args: args}
	if _, isVoid := resultType.(*VoidType); !isVoid && resultType != nil {
		r = b.Fn.NewReg(name, resultType)
		in.Dst = r
		r.Def = in
	}
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
