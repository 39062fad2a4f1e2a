package minicc

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/cir"
)

// blockKind is the kind of a block the lowerer makes. A function's block i
// of kind k is named blockBases[k] followed by i, as cir's NewBlock names
// it.
type blockKind uint8

const (
	bkEntry blockKind = iota
	bkIfThen
	bkIfElse
	bkIfEnd
	bkWhileHead
	bkWhileBody
	bkWhileEnd
	bkForHead
	bkForBody
	bkForPost
	bkForEnd
	bkSwitchEnd
	bkSwitchCase
	bkSwitchTest
	bkAndRHS
	bkOrRHS
	bkBoolTrue
	bkBoolFalse
	bkBoolEnd
	bkTernaryTrue
	bkTernaryFalse
	bkTernaryEnd
	numBlockKinds
)

var blockBases = [numBlockKinds]string{
	bkEntry:        "entry",
	bkIfThen:       "if.then",
	bkIfElse:       "if.else",
	bkIfEnd:        "if.end",
	bkWhileHead:    "while.head",
	bkWhileBody:    "while.body",
	bkWhileEnd:     "while.end",
	bkForHead:      "for.head",
	bkForBody:      "for.body",
	bkForPost:      "for.post",
	bkForEnd:       "for.end",
	bkSwitchEnd:    "sw.end",
	bkSwitchCase:   "sw.case",
	bkSwitchTest:   "sw.test",
	bkAndRHS:       "and.rhs",
	bkOrRHS:        "or.rhs",
	bkBoolTrue:     "b.true",
	bkBoolFalse:    "b.false",
	bkBoolEnd:      "b.end",
	bkTernaryTrue:  "t.true",
	bkTernaryFalse: "t.false",
	bkTernaryEnd:   "t.end",
}

// blockNames holds the block names one lowering worker has built: row i
// names block i of every kind. Every function repeats the same few kinds
// at small indexes, so a worker builds each row once, in one allocation,
// and every later block shares its names. A blockNames is not safe for
// concurrent use.
type blockNames [][numBlockKinds]string

// minNameRows is how many rows a worker makes room for at first, so the
// rows of a function's first blocks come in one allocation.
const minNameRows = 16

// newBlock appends a block of kind k to fn.
func (n *blockNames) newBlock(fn *cir.Function, k blockKind) *cir.Block {
	i := len(fn.Blocks)
	if i >= len(*n) {
		grown := slices.Grow(*n, max(i+1, minNameRows)-len(*n))
		*n = grown[:cap(grown)]
	}
	row := &(*n)[i]
	if row[k] == "" {
		fillNames(row, i)
	}
	return fn.AddBlock(row[k])
}

// fillNames builds the names of block i of every kind into row.
func fillNames(row *[numBlockKinds]string, i int) {
	idx := strconv.Itoa(i)
	size := 0
	for _, base := range blockBases {
		size += len(base) + len(idx)
	}
	var b strings.Builder
	b.Grow(size)
	for _, base := range blockBases {
		b.WriteString(base)
		b.WriteString(idx)
	}
	all := b.String()
	for k, base := range blockBases {
		l := len(base) + len(idx)
		row[k], all = all[:l], all[l:]
	}
}
