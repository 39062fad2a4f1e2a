package core

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/callgraph"
	"repro/internal/cir"
	"repro/internal/typestate"
)

// entryTask is one Stage-1 unit of work: a single entry function, tagged
// with its position in the name-ordered entry list, which is the slot its
// Result fills, and its instruction count, which orders the deques.
type entryTask struct {
	idx  int
	fn   *cir.Function
	size int
}

// stealQueue is a mutex-based work-stealing deque of entry tasks. Deques
// are seeded in descending instruction-count order, so the owner pops the
// largest remaining entry from the front while thieves steal the smallest
// from the back — the classic LPT heuristic plus stealing, which keeps all
// workers busy on skewed corpora (a handful of huge driver entries next to
// many tiny ones).
type stealQueue struct {
	mu    sync.Mutex
	tasks []entryTask
}

func (q *stealQueue) popFront() (entryTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return entryTask{}, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t, true
}

func (q *stealQueue) popBack() (entryTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return entryTask{}, false
	}
	t := q.tasks[len(q.tasks)-1]
	q.tasks = q.tasks[:len(q.tasks)-1]
	return t, true
}

// steal scans the other workers' deques for a task, starting after w.
func steal(queues []*stealQueue, w int) (entryTask, bool) {
	for i := 1; i < len(queues); i++ {
		if t, ok := queues[(w+i)%len(queues)].popBack(); ok {
			return t, true
		}
	}
	return entryTask{}, false
}

// runEntryDelta analyzes a single entry function on a reused worker engine
// and returns that entry's Result. One engine — tracker, alias graph,
// on-path counts — is amortized over all the worker's entries; the
// counters and the dedup map are reset per entry (the map's buckets are
// reused), so within-entry deduplication happens here while cross-entry
// deduplication is replayed by mergeEntries in entry order.
func (e *Engine) runEntryDelta(fn *cir.Function) *Result {
	e.stats = Stats{}
	if e.tracker != nil {
		e.tracker.Stats = typestate.Stats{}
	}
	clear(e.dedup)
	e.possible = nil
	e.analyzeEntry(fn)
	res := &Result{Possible: e.possible, Stats: e.stats}
	res.Stats.EntryFunctions = 1
	res.Stats.Typestates = e.tracker.Stats.Transitions
	res.Stats.TypestatesUnaware = e.tracker.Stats.TransitionsUnaware
	return res
}

// RunParallel analyzes the module with a two-stage scheduler; it is the
// engine's only driver.
//
// Stage 1 runs `workers` concurrent engines over a work-stealing queue of
// entry functions sorted by descending instruction count (entry functions
// are independent analysis roots, so Stage 1 parallelizes perfectly and the
// largest entries start first). Each entry's Result lands in its slot of an
// entry-indexed slice; after the Stage-1 barrier the slice is merged once,
// in entry-name order (see mergeEntries). Stage 2 then validates the merged
// candidate list in one pass on the same `workers` (see validateCandidates).
//
// The result does not depend on the worker count: the merge reproduces the
// same candidate order, cross-entry deduplication and AltPaths
// accumulation, and Stage 2 validates the same same-entry candidate groups
// through the same call. Only the timing counters (AnalysisTime,
// ValidationTime, SolverNanos, WorkSteals) differ.
//
// workers <= 0 selects GOMAXPROCS. The merged Stats sum the per-entry
// counters; AnalysisTime is the wall-clock of Stage 1 (including
// incremental-cache replay), ValidationTime the wall-clock of Stage 2.
//
// When cfg.Cache is set, the run is incremental: each entry function is
// keyed by callgraph.EntryKey (transitive content fingerprint with the
// analysisSalt configuration digest mixed in). Entries whose key hits the
// cache skip Stage 1 entirely — their stored capsule fills the entry's
// slot, so candidate order, cross-entry dedup, and the report are
// byte-identical to a cold run — and their candidates replay the Stage-2
// verdicts the capsule carries. Misses run live and are stored, with their
// verdicts, for the next run. Every cache failure mode (corrupt file,
// unresolvable ref, unrepresentable candidate) degrades to a cold path,
// never to an error.
func RunParallel(mod *cir.Module, cfg Config, workers int) *Result {
	return RunParallelCtx(context.Background(), mod, cfg, workers)
}

// RunParallelCtx is RunParallel under a context: cancellation (and
// Config.RunTimeout, applied here) stops the run cooperatively — in-flight
// entries stop at their next poll, queued entries drain as "cancelled"
// incomplete records — and the partial Result is still well-formed and
// fully merged. Each worker wraps every entry in runEntryIsolated, so a
// panic or deadline trip in one entry walks the degrade ladder instead of
// taking down the run, and degraded results are withheld from the
// incremental cache (a warm re-run retries them).
func RunParallelCtx(ctx context.Context, mod *cir.Module, cfg Config, workers int) *Result {
	res, _ := RunGraphCtx(ctx, callgraph.Build(mod), cfg, workers, nil)
	return res
}

// RunGraphCtx is RunParallelCtx over cg's module, with cg as the call
// graph: a host that already holds the graph (pata.Program) neither
// rebuilds it nor recomputes the salt-free entry keys it memoizes.
//
// With a cache, the run also takes and returns replay state (see Carry):
// a hit on an entry that carry holds, under the run's salt, replays the
// carried candidates instead of decoding its capsule, and the returned
// Carry holds this run's state for the next. Without a cache, both are
// nil.
func RunGraphCtx(ctx context.Context, cg *callgraph.Graph, cfg Config, workers int, carry *Carry) (*Result, *Carry) {
	cfg = cfg.withDefaults()
	if cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.RunTimeout)
		defer cancel()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mod := cg.Mod
	entries := cg.EntryFunctions()
	cache := cfg.Cache
	workers = max(min(workers, len(entries)), 1)

	start := time.Now()

	// Incremental lookup: probe the cache for every entry up front. Hits
	// fill their slot with a replay; only misses are scheduled onto the
	// Stage-1 deques. Entries the previous run's Carry holds, under this
	// run's salt, take their key from it, and their replay too when it
	// was a hit. The key pass is sequential — EntryKey memoizes function
	// fingerprints on first computation — but the capsule reads and
	// decodes fan out across workers: each probe touches a disjoint slot,
	// an EntryCache is safe for concurrent use, and decodeReplay only reads
	// the module. Every entry is loaded, carried or not: the load is what
	// tells a hit from a miss, and it marks the key as used for a resident
	// store's EndRun.
	var keys []string
	var salt uint64
	var byName map[string]typestate.Checker
	slots := make([]entrySlot, len(entries))
	if cache != nil {
		salt = cfg.analysisSalt(mod)
		byName = checkersByName(cfg)
		keys = make([]string, len(entries))
		if carry != nil && carry.salt == salt {
			carry.match(entries, func(i, j int) {
				keys[i] = carry.keys[j]
				slots[i].rep, slots[i].cached = carry.slots[j].rep, carry.slots[j].cached
			})
		}
		for i, fn := range entries {
			if keys[i] == "" {
				keys[i] = entryKeyString(cg.EntryKey(fn, salt))
			}
		}
		parallelFor(len(entries), workers, func(i int) {
			data, ok := cache.Load(keys[i])
			switch {
			case !ok:
				slots[i] = entrySlot{}
			case !slots[i].cached:
				slots[i].rep, slots[i].cached = decodeReplay(data, mod, byName)
			}
		})
	}
	var live []entryTask
	for i, fn := range entries {
		if !slots[i].cached {
			live = append(live, entryTask{idx: i, fn: fn, size: fn.NumInstrs()})
		}
	}

	// Seed the deques: entries sorted by descending size, striped across
	// workers so every deque starts with a mix of large and small tasks.
	sort.SliceStable(live, func(i, j int) bool {
		if si, sj := live[i].size, live[j].size; si != sj {
			return si > sj
		}
		return live[i].fn.Name < live[j].fn.Name
	})
	queues := make([]*stealQueue, workers)
	for w := range queues {
		queues[w] = &stealQueue{}
	}
	for i, t := range live {
		q := queues[i%workers]
		q.tasks = append(q.tasks, t)
	}

	// Stage-1 workers: one reused engine per worker (sharing the call
	// graph), each writing its entries' Results into their slots.
	var steals int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := newEngineWithCG(mod, cfg, cg)
			eng.runCtx = ctx
			defer func() { putOnPath(eng.onPath) }()
			for {
				t, ok := queues[w].popFront()
				if !ok {
					if t, ok = steal(queues, w); !ok {
						return
					}
					atomic.AddInt64(&steals, 1)
				}
				var res *Result
				degraded := false
				if ctx.Err() != nil {
					// Cancelled run: drain the queues without analyzing,
					// recording each remaining entry so the partial report
					// says exactly what was never attempted.
					res = &Result{Stats: Stats{EntryFunctions: 1}}
					res.Incomplete = []IncompleteEntry{{Entry: t.fn.Name, Reason: ReasonCancelled, Rung: -1}}
					degraded = true
				} else {
					res, eng, degraded = runEntryIsolated(eng, t.fn)
				}
				if cache != nil {
					// A degraded entry is never cached: its result depends
					// on wall-clock (or on a contained panic), so a warm
					// re-run must re-attempt it rather than replay the
					// degraded shadow.
					slots[t.idx].store = !degraded
					res.Stats.CacheEntriesMiss = 1
				}
				slots[t.idx].live = res
			}
		}(w)
	}
	wg.Wait()

	merged := mergeEntries(entries, slots)
	merged.Stats.AnalysisTime = time.Since(start)

	vstart := time.Now()
	var verdicts []*verdictC
	merged.Bugs, verdicts = validateCandidates(ctx, cfg, merged.Possible, workers, &merged.Stats)
	merged.Stats.PossibleBugs = int64(len(merged.Possible)) + merged.Stats.RepeatedDropped
	merged.Stats.WorkSteals = atomic.LoadInt64(&steals)
	merged.Stats.ValidationTime = time.Since(vstart)
	if cache == nil {
		return merged, nil
	}
	var fresh map[*PossibleBug]*verdictC
	for j, v := range verdicts {
		if v != nil {
			if fresh == nil {
				fresh = make(map[*PossibleBug]*verdictC)
			}
			fresh[merged.Possible[j]] = v
		}
	}
	parallelFor(len(entries), workers, func(i int) {
		saveEntry(cache, keys[i], &slots[i], fresh, mod, byName)
	})
	next := &Carry{salt: salt, entries: entries, keys: keys, slots: slots}
	return merged, next
}

// entrySlot is one entry's place in a run: its live Stage-1 Result, or,
// when cached is set, the replay of the capsule the cache holds for it —
// the hit's, and after saveEntry, which drops the live Result, the one a
// saved entry stored. store marks a live entry whose capsule is saved
// after Stage 2.
type entrySlot struct {
	live          *Result
	cached, store bool
	rep           replay
}

// parallelFor calls f(i) for every i in [0, n) on `workers` goroutines,
// each taking every workers-th index.
func parallelFor(n, workers int, f func(i int)) {
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += workers {
				f(i)
			}
		}(p)
	}
	wg.Wait()
}

// saveEntry stores one entry's capsule after Stage 2, with each
// candidate's verdict, fresh ones included: a missed entry's when its slot
// says so, and a hit's when Stage 2 decided a candidate its capsule stored no
// verdict for. An entry that is not encodable just isn't cached. A saved
// entry's slot is then left holding the replay of what the cache returns
// for the key, if that is the capsule just saved (a store whose writes
// are off returns the old one, or none), so the slot always replays what
// the cache holds.
func saveEntry(cache EntryCache, key string, sl *entrySlot, fresh map[*PossibleBug]*verdictC,
	mod *cir.Module, checkers map[string]typestate.Checker) {
	live := sl.live
	sl.live = nil
	var st capsuleStats
	var possible []*PossibleBug
	switch {
	case sl.cached:
		if !slices.ContainsFunc(sl.rep.possible, func(pb *PossibleBug) bool { return fresh[pb] != nil }) {
			return
		}
		st, possible = sl.rep.stats, sl.rep.possible
	case sl.store:
		st, possible = capsuleStatsOf(&live.Stats), live.Possible
	default:
		return
	}
	sl.cached, sl.rep = false, replay{}
	data, ok := encodeEntry(st, possible, fresh)
	if !ok {
		return
	}
	cache.Save(key, data)
	if got, ok := cache.Load(key); ok && bytes.Equal(got, data) {
		sl.rep, sl.cached = decodeReplay(got, mod, checkers)
	}
}

// mergeEntries folds a run's entry slots, in entry-name order, into one
// run Result: a live entry's Result, or a hit's replay, whose Stats are
// its stored counters plus the replay's own (capsuleStats.replayed) and
// which, when the entry tripped a budget, synthesizes the entry's
// incomplete record (budget trips are deterministic, so budget-tripped
// capsules are cacheable; degraded entries are never saved, so no other
// reason can surface from a hit). Candidates go through a global dedup
// that extends bugSink's across entries: the first sighting keeps the
// candidate, later sightings append their primary path and then their own
// alternates as AltPaths (capped), each sighting counting one repeated
// drop. A first sighting that gains paths is replaced by a copy marked
// merged, whose verdict then depends on another entry; the entry's own
// candidate is left as its capsule stores it.
func mergeEntries(entries []*cir.Function, slots []entrySlot) *Result {
	type mergeKey struct {
		checker string
		origin  int
		bug     int
	}
	seen := make(map[mergeKey]int) // index into merged.Possible
	merged := &Result{}
	s := &merged.Stats
	for i := range slots {
		var st *Stats
		var possible []*PossibleBug
		if r := slots[i].live; r != nil {
			st, possible = &r.Stats, r.Possible
			merged.Incomplete = append(merged.Incomplete, r.Incomplete...)
		} else {
			rst := slots[i].rep.stats.replayed()
			st, possible = &rst, slots[i].rep.possible
			if st.Budgeted > 0 {
				merged.Incomplete = append(merged.Incomplete,
					IncompleteEntry{Entry: entries[i].Name, Reason: ReasonBudget, Rung: 0})
			}
		}
		s.EntryFunctions += st.EntryFunctions
		s.PathsExplored += st.PathsExplored
		s.StepsExecuted += st.StepsExecuted
		s.Budgeted += st.Budgeted
		s.Typestates += st.Typestates
		s.TypestatesUnaware += st.TypestatesUnaware
		s.RepeatedDropped += st.RepeatedDropped
		s.CacheEntriesHit += st.CacheEntriesHit
		s.CacheEntriesMiss += st.CacheEntriesMiss
		s.CacheStepsSkipped += st.CacheStepsSkipped
		s.DeadlineTrips += st.DeadlineTrips
		s.PanicsContained += st.PanicsContained
		s.EntriesRetried += st.EntriesRetried
		s.EntriesDegraded += st.EntriesDegraded
		for _, pb := range possible {
			k := mergeKey{checker: pb.Checker.Name(), origin: pb.OriginGID, bug: pb.BugInstr.GID()}
			j, dup := seen[k]
			if !dup {
				seen[k] = len(merged.Possible)
				merged.Possible = append(merged.Possible, pb)
				continue
			}
			s.RepeatedDropped++
			prev := merged.Possible[j]
			if len(prev.AltPaths) >= maxAltPaths {
				continue
			}
			if !prev.merged {
				cp := *prev
				cp.AltPaths = slices.Clip(prev.AltPaths)
				cp.merged = true
				prev, merged.Possible[j] = &cp, &cp
			}
			prev.AltPaths = append(prev.AltPaths, pb.Path)
			for _, alt := range pb.AltPaths {
				if len(prev.AltPaths) >= maxAltPaths {
					break
				}
				prev.AltPaths = append(prev.AltPaths, alt)
			}
		}
	}
	return merged
}

// validateCandidates is Stage 2: it validates the deduplicated candidate
// list in one pass and returns the surviving bugs in candidate order,
// folding every outcome's counters into st, and, positionally parallel to
// possible, the verdicts it decided for the capsules (see validateGroup).
// Candidates are split into their contiguous same-entry groups —
// candidates append per entry in entry order, so each group is exactly one
// entry's candidates — and `workers` goroutines take groups in turn. With
// no validator installed, every candidate is reported unvalidated.
func validateCandidates(ctx context.Context, cfg Config, possible []*PossibleBug, workers int, st *Stats) ([]*Bug, []*verdictC) {
	var bugs []*Bug
	if cfg.ValidatePath == nil {
		for _, pb := range possible {
			bugs = append(bugs, &Bug{PossibleBug: pb})
		}
		return bugs, nil
	}
	var groups []int // start index of each group; len(possible) closes the last
	for i, pb := range possible {
		if i == 0 || pb.EntryFn != possible[i-1].EntryFn {
			groups = append(groups, i)
		}
	}
	groups = append(groups, len(possible))

	outs := make([]ValidationOutcome, len(possible))
	fresh := make([]*verdictC, len(possible))
	var next, solverNanos atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(groups)-1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine accumulates solver time locally and folds it in
			// once at exit, so the hot path never bounces a shared cache line.
			var mySolver int64
			defer func() { solverNanos.Add(mySolver) }()
			for {
				g := int(next.Add(1)) - 1
				if g >= len(groups)-1 {
					return
				}
				lo, hi := groups[g], groups[g+1]
				validateGroup(ctx, cfg, possible[lo:hi], outs[lo:hi], fresh[lo:hi], &mySolver)
			}
		}()
	}
	wg.Wait()
	st.SolverNanos += solverNanos.Load()

	for i, pb := range possible {
		out := outs[i]
		st.addValidation(out)
		if !out.Feasible {
			st.FalseDropped++
			continue
		}
		bugs = append(bugs, &Bug{PossibleBug: pb, Validated: !out.Panicked, Trigger: out.Trigger})
	}
	return bugs, fresh
}

// validateGroup validates one same-entry candidate group into outs, which
// is positionally parallel to pbs, as fresh is. A candidate replays the
// verdict its entry capsule carries, unless the merge appended another
// entry's paths to it; the rest, primary and alternate witnesses alike, go
// to the validator together in one validateBatchGuarded call so a batch
// validator can share their path-condition prefixes. Each live outcome is
// recorded in fresh for the capsule (see saveEntry), except a merged
// candidate's, whose verdict depends on a key other than its entry's, and
// except an interrupted or panicked one: that verdict is conservative, not
// proven, and persisting it would freeze a guess. Candidates are never
// written: a replayed one may be shared with other runs (see Carry).
func validateGroup(ctx context.Context, cfg Config, pbs []*PossibleBug, outs []ValidationOutcome, fresh []*verdictC, solverNanos *int64) {
	var miss []*PossibleBug
	var idx []int
	for i, pb := range pbs {
		if pb.verdict != nil && !pb.merged {
			// A replayed verdict carries no verdict-cache counters: those
			// describe solver work, and a replay does none.
			outs[i] = pb.verdict.outcome()
			continue
		}
		miss = append(miss, pb)
		idx = append(idx, i)
	}
	for j, out := range validateBatchGuarded(ctx, cfg, miss, solverNanos) {
		outs[idx[j]] = out
		if !miss[j].merged && !out.TimedOut && !out.Panicked {
			fresh[idx[j]] = verdictOf(out)
		}
	}
}
