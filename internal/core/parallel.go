package core

import (
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
// deduplication is replayed by mergeResults in entry order.
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
// in entry-name order (see mergeResults). Stage 2 then validates the merged
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
	return RunGraphCtx(ctx, callgraph.Build(mod), cfg, workers)
}

// RunGraphCtx is RunParallelCtx over cg's module, with cg as the call
// graph: a host that already holds the graph (pata.Program) neither
// rebuilds it nor recomputes the salt-free entry keys it memoizes.
func RunGraphCtx(ctx context.Context, cg *callgraph.Graph, cfg Config, workers int) *Result {
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
	// fill their result slot; only misses are scheduled onto the Stage-1
	// deques. The key pass is sequential — EntryKey memoizes function
	// fingerprints on first computation — but the capsule reads and
	// decodes fan out across workers: each probe touches a disjoint slot,
	// the store's locks are striped by key, and decodeCapsule only reads
	// the module. Each hit's payload is kept for saveCapsule, and each
	// miss's wire form (lifted in Stage 1) for saving after Stage 2.
	var keys []string
	var hits [][]byte
	var wires []*entryCapsule
	results := make([]*Result, len(entries))
	if cache != nil {
		salt := cfg.analysisSalt(mod)
		byName := checkersByName(cfg)
		keys = make([]string, len(entries))
		for i, fn := range entries {
			keys[i] = entryKeyString(cg.EntryKey(fn, salt))
		}
		hits = make([][]byte, len(entries))
		wires = make([]*entryCapsule, len(entries))
		parallelFor(len(entries), workers, func(i int) {
			data, ok := cache.Load(keys[i])
			if !ok {
				return
			}
			res, ok := decodeCapsule(data, mod, byName)
			if !ok {
				return
			}
			// Budget trips are deterministic, so budget-tripped capsules
			// are cacheable; their incomplete record is synthesized on
			// replay (capsules predate the record's creation and stay
			// leaner without it). Degraded entries are never saved, so no
			// other reason can surface from a hit.
			if res.Stats.Budgeted > 0 {
				res.Incomplete = append(res.Incomplete,
					IncompleteEntry{Entry: entries[i].Name, Reason: ReasonBudget, Rung: 0})
			}
			results[i], hits[i] = res, data
		})
	}
	var live []entryTask
	for i, fn := range entries {
		if results[i] == nil {
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
					// Lift the wire form before the merge mutates
					// first-sighting candidates in place (AltPaths). A
					// non-encodable entry just isn't cached — and neither
					// is a degraded one: its result depends on wall-clock
					// (or on a contained panic), so a warm re-run must
					// re-attempt it rather than replay the degraded shadow.
					if !degraded {
						if c, ok := capsuleOf(res); ok {
							wires[t.idx] = &c
						}
					}
					res.Stats.CacheEntriesMiss = 1
				}
				results[t.idx] = res
			}
		}(w)
	}
	wg.Wait()

	merged := mergeResults(results)
	merged.Stats.AnalysisTime = time.Since(start)

	vstart := time.Now()
	merged.Bugs = validateCandidates(ctx, cfg, merged.Possible, workers, &merged.Stats)
	merged.Stats.PossibleBugs = int64(len(merged.Possible)) + merged.Stats.RepeatedDropped
	merged.Stats.WorkSteals = atomic.LoadInt64(&steals)
	merged.Stats.ValidationTime = time.Since(vstart)
	if cache != nil {
		parallelFor(len(entries), workers, func(i int) {
			saveCapsule(cache, keys[i], results[i], wires[i], hits[i])
		})
	}
	return merged
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

// saveCapsule stores one entry's capsule after Stage 2, with each
// candidate's verdict: a missed entry's wire form c (nil when the entry is
// degraded or not encodable, and never saved), or — when Stage 2 recorded
// a verdict the hit's capsule lacked — the hit's payload re-decoded.
func saveCapsule(cache EntryCache, key string, res *Result, c *entryCapsule, hit []byte) {
	if c == nil {
		if hit == nil || !slices.ContainsFunc(res.Possible, func(pb *PossibleBug) bool { return pb.fresh }) {
			return
		}
		w, ok := unmarshalCapsule(hit)
		if !ok {
			return
		}
		c = &w
	}
	for j, pb := range res.Possible {
		c.Cands[j].Verdict = pb.verdict
	}
	cache.Save(key, marshalCapsule(c))
}

// mergeResults folds the per-entry Results, in entry-name order, into one
// run Result through a global dedup that extends bugSink's across entries:
// the first sighting keeps the candidate, later sightings append their
// primary path and then their own alternates as AltPaths (capped), each
// sighting counting one repeated drop. A first sighting that gains paths
// is marked merged: its verdict then depends on another entry.
func mergeResults(results []*Result) *Result {
	type mergeKey struct {
		checker string
		origin  int
		bug     int
	}
	seen := make(map[mergeKey]*PossibleBug)
	merged := &Result{}
	s := &merged.Stats
	for _, r := range results {
		merged.Incomplete = append(merged.Incomplete, r.Incomplete...)
		s.EntryFunctions += r.Stats.EntryFunctions
		s.PathsExplored += r.Stats.PathsExplored
		s.StepsExecuted += r.Stats.StepsExecuted
		s.Budgeted += r.Stats.Budgeted
		s.Typestates += r.Stats.Typestates
		s.TypestatesUnaware += r.Stats.TypestatesUnaware
		s.RepeatedDropped += r.Stats.RepeatedDropped
		s.CacheEntriesHit += r.Stats.CacheEntriesHit
		s.CacheEntriesMiss += r.Stats.CacheEntriesMiss
		s.CacheStepsSkipped += r.Stats.CacheStepsSkipped
		s.DeadlineTrips += r.Stats.DeadlineTrips
		s.PanicsContained += r.Stats.PanicsContained
		s.EntriesRetried += r.Stats.EntriesRetried
		s.EntriesDegraded += r.Stats.EntriesDegraded
		for _, pb := range r.Possible {
			k := mergeKey{checker: pb.Checker.Name(), origin: pb.OriginGID, bug: pb.BugInstr.GID()}
			prev, dup := seen[k]
			if !dup {
				seen[k] = pb
				merged.Possible = append(merged.Possible, pb)
				continue
			}
			s.RepeatedDropped++
			had := len(prev.AltPaths)
			if len(prev.AltPaths) < maxAltPaths {
				prev.AltPaths = append(prev.AltPaths, pb.Path)
			}
			for _, alt := range pb.AltPaths {
				if len(prev.AltPaths) >= maxAltPaths {
					break
				}
				prev.AltPaths = append(prev.AltPaths, alt)
			}
			if len(prev.AltPaths) > had {
				prev.merged = true
			}
		}
	}
	return merged
}

// validateCandidates is Stage 2: it validates the deduplicated candidate
// list in one pass and returns the surviving bugs in candidate order,
// folding every outcome's counters into st. Candidates are split into their
// contiguous same-entry groups — candidates append per entry in entry
// order, so each group is exactly one entry's candidates — and `workers`
// goroutines take groups in turn (see validateGroup). With no validator
// installed, every candidate is reported unvalidated.
func validateCandidates(ctx context.Context, cfg Config, possible []*PossibleBug, workers int, st *Stats) []*Bug {
	var bugs []*Bug
	if cfg.ValidatePath == nil {
		for _, pb := range possible {
			bugs = append(bugs, &Bug{PossibleBug: pb})
		}
		return bugs
	}
	var groups []int // start index of each group; len(possible) closes the last
	for i, pb := range possible {
		if i == 0 || pb.EntryFn != possible[i-1].EntryFn {
			groups = append(groups, i)
		}
	}
	groups = append(groups, len(possible))

	outs := make([]ValidationOutcome, len(possible))
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
				validateGroup(ctx, cfg, possible[lo:hi], outs[lo:hi], &mySolver)
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
	return bugs
}

// validateGroup validates one same-entry candidate group into outs, which
// is positionally parallel to pbs. A candidate replays the verdict its
// entry capsule carries, unless the merge appended another entry's paths
// to it; the rest, primary and alternate witnesses alike, go to the
// validator together in one validateBatchGuarded call so a batch validator
// can share their path-condition prefixes. Each live outcome is recorded
// on its candidate for the capsule (see saveCapsule), except on a merged
// candidate, whose verdict depends on a key other than its entry's, and
// except an interrupted or panicked one: that verdict is conservative, not
// proven, and persisting it would freeze a guess.
func validateGroup(ctx context.Context, cfg Config, pbs []*PossibleBug, outs []ValidationOutcome, solverNanos *int64) {
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
		if pb := miss[j]; !pb.merged && !out.TimedOut && !out.Panicked {
			pb.verdict, pb.fresh = verdictOf(out), true
		}
	}
}
