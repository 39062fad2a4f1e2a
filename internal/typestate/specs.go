package typestate

import (
	"fmt"
	"strings"

	"repro/internal/cir"
)

// The checker specs. States S0 are initial; each bug state is the FSM's Bug.

// NewNPD returns the null-pointer-dereference checker (Table 2, left).
// Self loops are transitions in the paper's diagram, so they count.
func NewNPD() *Spec {
	return &Spec{
		CheckerName: "null-pointer-dereference", BugType: NPD,
		Machine: FSM{Name: "FSM_NPD", Initial: "S0", Bug: "S_NPD", Transitions: map[State]map[Event]State{
			"S0":    {"ass_null": "S_N", "br_null": "S_N", "br_nonnull": "S_NON", "deref": "S_NON"},
			"S_NON": {"ass_null": "S_N", "br_null": "S_N", "deref": "S_NON", "br_nonnull": "S_NON"},
			"S_N":   {"deref": "S_NPD", "br_nonnull": "S_NON", "ass_null": "S_N", "br_null": "S_N"},
			"S_NPD": {"deref": "S_NPD"}, // each unsafe dereference reports
		}},
		AssNull: "ass_null", BrNull: "br_null", BrNonNull: "br_nonnull", Deref: "deref",
	}
}

// NewUVA returns the uninitialized-variable-access checker (Table 2,
// middle). States attach to ADDRESS classes: aliased addresses share one
// initialization state, field-sensitively. A pointer handed to an opaque
// callee counts as initialized, avoiding the concurrency false positives
// of §5.2 at a small false-negative risk.
func NewUVA() *Spec {
	s := NewUVAThreadUnaware()
	s.OpaqueInit = "init"
	return s
}

// NewUVAThreadUnaware returns the paper-faithful UVA variant: an
// initialization performed by a concurrently-executed function is invisible,
// reproducing the §5.2 concurrency false positives.
func NewUVAThreadUnaware() *Spec {
	return &Spec{
		CheckerName: "uninitialized-variable-access", BugType: UVA,
		Machine: FSM{Name: "FSM_UVA", Initial: "S0", Bug: "S_UVA", Transitions: map[State]map[Event]State{
			"S0":    {"alloc": "S_UI"}, // stores/uses on unknown storage (params, globals) stay S0
			"S_UI":  {"ass_const": "S_I", "init": "S_I", "use": "S_UVA"},
			"S_I":   {"ass_const": "S_I", "use": "S_I"},
			"S_UVA": {"use": "S_UVA"}, // each access of the uninitialized slot reports
		}},
		// A local without initializer is uninitialized storage; parameter
		// slots are stored to by the prologue before any use.
		Alloc: "alloc", Region: "S_UI", Write: "ass_const", Read: "use",
		Calls: []CallRule{
			{Intr: IntrAlloc, FromResult: true, Event: "alloc"},
			{Intr: IntrZeroAlloc, FromResult: true, Event: "init"},
			{Intr: IntrMemInit, Event: "init"},
		},
	}
}

// NewML returns the memory-leak checker (Table 2, right): heap objects
// still S_NF, unescaped and owned by the returning frame leak.
func NewML() *Spec {
	return &Spec{
		CheckerName: "memory-leak", BugType: ML,
		Machine: FSM{Name: "FSM_ML", Initial: "S0", Bug: "S_ML", Transitions: map[State]map[Event]State{
			"S0": {"malloc": "S_NF"},
			// alloc_failed: the p == NULL branch, where nothing was allocated.
			"S_NF": {"free": "S_F", "ret": "S_ML", "alloc_failed": "S_F"},
			"S_F":  {"malloc": "S_NF"}, // reallocation through the same class
		}},
		Calls: []CallRule{
			{Intr: IntrAlloc, FromResult: true, Event: "malloc"},
			{Intr: IntrZeroAlloc, FromResult: true, Event: "malloc"},
			{Intr: IntrFree, Event: "free"},
		},
		BrNull:  "alloc_failed",
		Acquire: "malloc", Held: "S_NF", EscapeOnStore: true, Leak: "ret",
	}
}

// NewUAF returns the use-after-free checker, an extension beyond the
// paper's six (its §8 highlights typestate analysis of use-after-free).
// States attach to the freed pointer's class; a double free is a bug too.
func NewUAF() *Spec {
	return &Spec{
		CheckerName: "use-after-free", BugType: UAF,
		Machine: FSM{Name: "FSM_UAF", Initial: "S0", Bug: "S_UAF", Transitions: map[State]map[Event]State{
			// Frees of unknown pointers (params) are not tracked: the
			// caller may legitimately own them.
			"S0":      {"malloc": "S_LIVE"},
			"S_LIVE":  {"free": "S_FREED", "use": "S_LIVE"},
			"S_FREED": {"use": "S_UAF", "free": "S_UAF", "malloc": "S_LIVE"},
			"S_UAF":   {"use": "S_UAF"},
		}},
		Deref: "use",
		Calls: []CallRule{
			{Intr: IntrAlloc, FromResult: true, Event: "malloc"},
			{Intr: IntrZeroAlloc, FromResult: true, Event: "malloc"},
			{Intr: IntrFree, Event: "free"},
		},
	}
}

// NewDL returns the §5.5 double-lock/unlock checker.
func NewDL() *Spec {
	return &Spec{
		CheckerName: "double-lock-unlock", BugType: DL,
		Machine: FSM{Name: "FSM_DL", Initial: "S0", Bug: "S_DL", Transitions: map[State]map[Event]State{
			"S0":  {"lock": "S_L", "unlock": "S_U"}, // unknown or unlocked at path entry
			"S_L": {"lock": "S_DL", "unlock": "S_U"},
			"S_U": {"lock": "S_L", "unlock": "S_DL"},
		}},
		Calls: []CallRule{{Intr: IntrLock, Event: "lock"}, {Intr: IntrUnlock, Event: "unlock"}},
	}
}

const minInt, maxInt = -1 << 63, 1<<63 - 1

// NewAIU returns the §5.5 array-index-underflow checker: indexing with a
// value known negative on the path.
func NewAIU() *Spec {
	return &Spec{
		CheckerName: "array-index-underflow", BugType: AIU,
		Machine: FSM{Name: "FSM_AIU", Initial: "S0", Bug: "S_AIU", Transitions: map[State]map[Event]State{
			"S0":    {"br_neg": "S_NEG", "ass_neg": "S_NEG", "br_nonneg": "S_OK", "ass_nonneg": "S_OK"},
			"S_NEG": {"index_use": "S_AIU", "br_nonneg": "S_OK", "ass_nonneg": "S_OK"},
			"S_OK":  {"br_neg": "S_NEG", "ass_neg": "S_NEG"},
			"S_AIU": {"index_use": "S_AIU"},
		}},
		Bad: cir.PredLT, AssBad: "ass_neg", AssGood: "ass_nonneg", IndexUse: "index_use",
		BrConst: []ConstFact{
			{cir.PredLT, minInt, 0, "br_neg"},
			{cir.PredLE, minInt, -1, "br_neg"},
			{cir.PredGE, 0, maxInt, "br_nonneg"},
			{cir.PredGT, -1, maxInt, "br_nonneg"},
			{cir.PredEQ, 0, maxInt, "br_nonneg"},
			{cir.PredEQ, minInt, -1, "br_neg"},
		},
	}
}

// NewDBZ returns the §5.5 division-by-zero checker: division or remainder
// by a value known zero on the path.
func NewDBZ() *Spec {
	return &Spec{
		CheckerName: "division-by-zero", BugType: DBZ,
		Machine: FSM{Name: "FSM_DBZ", Initial: "S0", Bug: "S_DBZ", Transitions: map[State]map[Event]State{
			"S0":    {"br_zero": "S_Z", "ass_zero": "S_Z", "br_nonzero": "S_NZ", "ass_nonzero": "S_NZ"},
			"S_Z":   {"div_use": "S_DBZ", "br_nonzero": "S_NZ", "ass_nonzero": "S_NZ"},
			"S_NZ":  {"br_zero": "S_Z", "ass_zero": "S_Z"},
			"S_DBZ": {"div_use": "S_DBZ"},
		}},
		Bad: cir.PredEQ, AssBad: "ass_zero", AssGood: "ass_nonzero", StoreBad: "ass_zero", DivUse: "div_use",
		BrConst: []ConstFact{
			{cir.PredEQ, 0, 0, "br_zero"},
			{cir.PredNE, 0, 0, "br_nonzero"},
			{cir.PredGT, 0, 0, "br_nonzero"},
			{cir.PredLT, 0, 0, "br_nonzero"},
		},
	}
}

// PairRule configures one acquire/release API pair.
type PairRule struct {
	// Name labels reports, e.g. "region" for request/release_region.
	Name string
	// Open and Close list the callee spellings.
	Open  []string
	Close []string
	// HandleFromResult selects where the resource handle lives: true takes
	// the open call's result (of_node_get-style), false its first argument
	// (request_region-style).
	HandleFromResult bool
}

// NewPair returns the API-pairing checker of one rule — the §7 "API-rule
// checking" application of the alias analysis: because the handle is
// tracked per alias class, releases through aliases balance the acquire.
// It generalizes ML: returning while held leaks, closing twice is a
// double release.
func NewPair(rule PairRule) *Spec {
	return &Spec{
		CheckerName: "api-pair-" + rule.Name, BugType: API,
		Machine: FSM{Name: "FSM_API_" + rule.Name, Initial: "S0", Bug: "S_API", Transitions: map[State]map[Event]State{
			"S0": {"open": "S_HELD"},
			// open_failed: the handle's NULL branch, where nothing is held.
			"S_HELD": {"close": "S_DONE", "ret": "S_API", "open_failed": "S_DONE"},
			"S_DONE": {"open": "S_HELD", "close": "S_API"},
		}},
		Calls: []CallRule{
			{Names: rule.Open, FromResult: rule.HandleFromResult, Event: "open"},
			{Names: rule.Close, Event: "close"},
		},
		BrNull:  "open_failed",
		Acquire: "open", Held: "S_HELD", Leak: "ret",
	}
}

// CommonPairRules returns pairing rules for widespread kernel APIs.
func CommonPairRules() []PairRule {
	return []PairRule{
		{Name: "region", Open: []string{"request_region", "request_mem_region"},
			Close: []string{"release_region", "release_mem_region"}, HandleFromResult: true},
		{Name: "of_node", Open: []string{"of_node_get", "of_find_node_by_name"},
			Close: []string{"of_node_put"}, HandleFromResult: true},
		{Name: "clk", Open: []string{"clk_prepare_enable", "clk_enable"},
			Close: []string{"clk_disable_unprepare", "clk_disable"}},
		{Name: "irq", Open: []string{"enable_irq"}, Close: []string{"disable_irq"}},
	}
}

// registry names every built-in checker for -checkers, in AllCheckers
// order; the first three are the paper's main-evaluation trio (§5.1).
var registry = []struct {
	name string
	new  func() *Spec
}{
	{"npd", NewNPD}, {"uva", NewUVA}, {"ml", NewML},
	{"dl", NewDL}, {"aiu", NewAIU}, {"dbz", NewDBZ}, {"uaf", NewUAF},
}

const numCore = 3

// CheckerNames lists the names ByName accepts; CoreCheckers are the first
// three.
func CheckerNames() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// ByName returns a fresh checker for a CheckerNames entry, in any case.
func ByName(name string) (Checker, bool) {
	for _, r := range registry {
		if strings.EqualFold(r.name, name) {
			return r.new(), true
		}
	}
	return nil, false
}

// CheckersUsage is the -checkers flag help of the pata and patad commands.
func CheckersUsage() string {
	names := CheckerNames()
	return fmt.Sprintf("comma-separated checkers: %s or 'all' (default %s)",
		strings.Join(names, ","), strings.Join(names[:numCore], ","))
}

func checkers(n int) []Checker {
	out := make([]Checker, n)
	for i := range out {
		out[i] = registry[i].new()
	}
	return out
}

// AllCheckers returns every built-in checker: the Table 2 trio, the three
// §5.5 extension checkers and use-after-free.
func AllCheckers() []Checker { return checkers(len(registry)) }

// CoreCheckers returns the NPD/UVA/ML trio of the paper's main evaluation
// (§5.1).
func CoreCheckers() []Checker { return checkers(numCore) }
