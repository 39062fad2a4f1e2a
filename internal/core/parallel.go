package core

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/callgraph"
	"repro/internal/cir"
)

// entryTask is one Stage-1 unit of work: a single entry function, tagged
// with its position in the name-ordered entry list so the merger can replay
// results in the exact order the sequential engine would visit them.
type entryTask struct {
	idx int
	fn  *cir.Function
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

// candRec tracks one merged candidate through the validation pipeline. The
// merger writes pb and prim before dispatch; exactly one validator worker
// writes out; the assembler reads everything after the pools drain.
type candRec struct {
	pb *PossibleBug
	// prim is a snapshot of the candidate with AltPaths stripped, taken at
	// dispatch time — the merger may still append alternate witnesses to pb
	// while the primary path is being validated.
	prim *PossibleBug
	out  ValidationOutcome
}

// runEntryDelta analyzes a single entry function on a reused engine and
// returns that entry's delta Result. RunParallel's workers call this instead
// of Run so one engine — tracker, alias graph, size-gate counts — is amortized
// over all the worker's entries. The dedup map is cleared between entries
// (its buckets are reused): within-entry deduplication happens here, exactly
// as in the sequential engine, while cross-entry deduplication is replayed
// centrally by the merger in entry order.
func (e *Engine) runEntryDelta(fn *cir.Function) *Result {
	prev := e.stats
	prevTrk := e.tracker0Stats()
	clear(e.dedup)
	e.possible = nil
	e.analyzeEntry(fn)
	trk := e.tracker0Stats()
	res := &Result{Possible: e.possible}
	res.Stats.EntryFunctions = 1
	res.Stats.PathsExplored = e.stats.PathsExplored - prev.PathsExplored
	res.Stats.StepsExecuted = e.stats.StepsExecuted - prev.StepsExecuted
	res.Stats.Budgeted = e.stats.Budgeted - prev.Budgeted
	res.Stats.RepeatedDropped = e.stats.RepeatedDropped - prev.RepeatedDropped
	res.Stats.Typestates = trk.Transitions - prevTrk.Transitions
	res.Stats.TypestatesUnaware = trk.TransitionsUnaware - prevTrk.TransitionsUnaware
	res.Stats.DeadlineTrips = e.stats.DeadlineTrips - prev.DeadlineTrips
	return res
}

// RunParallel analyzes the module with a pipelined two-stage scheduler.
//
// Stage 1 runs `workers` concurrent engines over a work-stealing queue of
// entry functions sorted by descending instruction count (entry functions
// are independent analysis roots, so Stage 1 parallelizes perfectly and the
// largest entries start first). Stage 2 runs cfg.ValidateWorkers concurrent
// path validators; candidate bugs stream from Stage-1 workers through a
// bounded channel into the validator pool, so constraint solving overlaps
// path exploration instead of waiting for the full merge.
//
// The result is identical to the sequential Engine.Run: per-entry results
// are replayed through the merge in entry-name order, reproducing the
// sequential engine's candidate order, cross-entry deduplication, and
// AltPaths accumulation exactly, and each candidate's validation tries the
// same witness paths in the same order. Only the timing counters
// (AnalysisTime, ValidationTime, WorkSteals) differ.
//
// workers <= 0 selects GOMAXPROCS. The merged Stats sum the per-worker
// counters; AnalysisTime is the wall-clock of the Stage-1 parallel phase
// (including incremental-cache replay and validation work overlapped with
// it), ValidationTime the wall-clock of draining the remaining validation
// work after Stage 1.
//
// When cfg.Cache is set, the run is incremental: each entry function is
// keyed by callgraph.EntryKey (transitive content fingerprint mixed with
// the analysisSalt configuration digest). Entries whose key hits the cache
// skip Stage 1 entirely — their stored capsule replays through the normal
// merge, so candidate order, cross-entry dedup, and the report are
// byte-identical to a cold run — and Stage-2 verdicts are served from the
// cache per candidate the same way. Misses run live and are stored for the
// next run. Every cache failure mode (corrupt file, unresolvable ref,
// unrepresentable candidate) degrades to a cold path, never to an error.
func RunParallel(mod *cir.Module, cfg Config, workers int) *Result {
	return RunParallelCtx(context.Background(), mod, cfg, workers)
}

// RunParallelCtx is RunParallel under a context: cancellation (and
// Config.RunTimeout, applied here) stops the run cooperatively — in-flight
// entries stop at their next poll, queued entries drain as "cancelled"
// incomplete records — and the partial Result is still well-formed and
// fully merged. This is also the entry point that walks the degrade
// ladder: each worker wraps every entry in runEntryIsolated, so a panic or
// deadline trip in one entry never takes down the run, and degraded
// results are withheld from the incremental cache (a warm re-run retries
// them).
func RunParallelCtx(ctx context.Context, mod *cir.Module, cfg Config, workers int) *Result {
	cfg = cfg.withDefaults()
	if cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.RunTimeout)
		defer cancel()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	vworkers := cfg.ValidateWorkers
	if vworkers <= 0 {
		vworkers = runtime.GOMAXPROCS(0)
	}
	cg := callgraph.Build(mod)
	entries := cg.EntryFunctions()
	cache := cfg.Cache
	if workers > len(entries) {
		workers = len(entries)
	}
	if cache == nil && workers <= 1 && vworkers <= 1 && ctx.Done() == nil &&
		cfg.EntryTimeout <= 0 && cfg.FaultHook == nil {
		// Nothing to overlap, nothing to replay, and no isolation ladder
		// to walk: the sequential engine is equivalent and avoids the
		// scheduling machinery.
		return newEngineWithCG(mod, cfg, cg).RunCtx(ctx)
	}
	if workers < 1 {
		workers = 1
	}

	start := time.Now()

	// Incremental lookup: probe the cache for every entry up front. Hits
	// are replayed straight into the merge; only misses are scheduled onto
	// the Stage-1 deques. The key pass is sequential — EntryKey memoizes
	// function fingerprints on first computation, and hashing is cheap — but
	// the capsule reads and decodes fan out across workers: each probe
	// touches a disjoint hits slot, the store's locks are striped by key,
	// and decodeCapsule only reads the module.
	var salt uint64
	var keys []string
	hits := make([]*Result, len(entries))
	if cache != nil {
		salt = cfg.analysisSalt(mod)
		byName := checkersByName(cfg)
		keys = make([]string, len(entries))
		for i, fn := range entries {
			keys[i] = entryKeyString(cg.EntryKey(fn, salt))
		}
		var wgP sync.WaitGroup
		for p := 0; p < workers; p++ {
			wgP.Add(1)
			go func(p int) {
				defer wgP.Done()
				for i := p; i < len(entries); i += workers {
					data, ok := cache.Load(keys[i])
					if !ok {
						continue
					}
					res, ok := decodeCapsule(data, mod, byName)
					if !ok {
						continue
					}
					// Budget trips are deterministic, so budget-tripped
					// capsules are cacheable; their incomplete record is
					// synthesized on replay (capsules predate the record's
					// creation and stay leaner without it). Degraded
					// entries are never saved, so no other reason can
					// surface from a hit.
					if res.Stats.Budgeted > 0 {
						res.Incomplete = append(res.Incomplete,
							IncompleteEntry{Entry: entries[i].Name, Reason: ReasonBudget, Rung: 0})
					}
					hits[i] = res
				}
			}(p)
		}
		wgP.Wait()
	}
	live := make([]entryTask, 0, len(entries))
	for i, fn := range entries {
		if hits[i] != nil {
			continue
		}
		live = append(live, entryTask{idx: i, fn: fn})
	}

	// Seed the deques: entries sorted by descending size, striped across
	// workers so every deque starts with a mix of large and small tasks.
	sorted := make([]entryTask, len(live))
	sizes := make([]int, len(entries))
	for i, fn := range entries {
		sizes[i] = fn.NumInstrs()
	}
	copy(sorted, live)
	sort.SliceStable(sorted, func(i, j int) bool {
		si, sj := sizes[sorted[i].idx], sizes[sorted[j].idx]
		if si != sj {
			return si > sj
		}
		return sorted[i].fn.Name < sorted[j].fn.Name
	})
	queues := make([]*stealQueue, workers)
	for w := range queues {
		queues[w] = &stealQueue{}
	}
	for i, t := range sorted {
		q := queues[i%workers]
		q.tasks = append(q.tasks, t)
	}

	// Stage-1 workers: one reused engine per worker (sharing the call
	// graph), emitting one delta Result per entry so a finished entry
	// streams to the merger while its worker moves on.
	type entryResult struct {
		idx int
		res *Result
	}
	// resCh holds every entry's result without blocking: Stage-1 throughput
	// is the scaling product, so a worker finishing an entry must never
	// stall behind the merger — which CAN stall, briefly, on the bounded
	// vtasks channel when Stage-2 validators fall behind. vtasks is the
	// deliberate backpressure point (it bounds in-flight validation memory);
	// resCh is deliberately not one (its entries are already materialized,
	// buffering them adds no memory beyond the slice header per entry).
	resCh := make(chan entryResult, len(entries)+1)
	var steals int64
	var wg1 sync.WaitGroup
	subCfg := cfg
	subCfg.Validate = false // Stage 2 runs in the validator pool
	for w := 0; w < workers; w++ {
		wg1.Add(1)
		go func(w int) {
			defer wg1.Done()
			eng := newEngineWithCG(mod, subCfg, cg)
			eng.runCtx = ctx
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
					// Encode before the merger sees res: the merger mutates
					// first-sighting candidates in place (AltPaths). A
					// non-encodable entry just isn't cached — and neither
					// is a degraded one: its result depends on wall-clock
					// (or on a contained panic), so a warm re-run must
					// re-attempt it rather than replay the degraded shadow.
					if !degraded {
						if data, ok := encodeCapsule(res); ok {
							cache.Save(keys[t.idx], data)
						}
					}
					res.Stats.CacheEntriesMiss = 1
				}
				resCh <- entryResult{idx: t.idx, res: res}
			}
		}(w)
	}
	// Hit injector: replayed entries enter the same merge stream as live
	// ones; the merger's reorder buffer restores entry order.
	wg1.Add(1)
	go func() {
		defer wg1.Done()
		for idx, res := range hits {
			if res != nil {
				resCh <- entryResult{idx: idx, res: res}
			}
		}
	}()

	// Stage-2 validator pool: primary witness paths are validated as soon
	// as the merger materializes a candidate. A candidate whose primary
	// path is feasible never consults its alternates (exactly as the
	// sequential validator short-circuits), so its verdict is final here.
	//
	// With an incremental cache the eager pool stays idle: verdicts are
	// keyed by the candidate's full witness set (primary plus alternates),
	// which is only final after the merge, so validation runs as a single
	// post-merge cached pass instead.
	validate := cfg.Validate && cfg.ValidatePath != nil
	eager := validate && cache == nil
	// With batching on, the merger dispatches one task per ENTRY (all its
	// first-sighted candidates together) so the batch validator can share
	// their path-condition prefixes in one incremental session; without a
	// batch hook, tasks stay per-candidate, preserving within-entry
	// validation concurrency.
	batching := eager && cfg.ValidateBatch != nil
	// solverNanos is the run-wide total; each validator goroutine accumulates
	// into its own local counter and folds it in exactly once at exit, so the
	// hot path never bounces a shared cache line between workers.
	var solverNanos int64
	vtasks := make(chan []*candRec, 4*vworkers)
	var wgV sync.WaitGroup
	if eager {
		for i := 0; i < vworkers; i++ {
			wgV.Add(1)
			go func() {
				defer wgV.Done()
				var mySolver int64
				defer func() { atomic.AddInt64(&solverNanos, mySolver) }()
				for batch := range vtasks {
					prims := make([]*PossibleBug, len(batch))
					for i, rec := range batch {
						prims[i] = rec.prim
					}
					outs := validateBatchGuarded(ctx, cfg, prims, &mySolver)
					for i, rec := range batch {
						rec.out = outs[i]
					}
				}
			}()
		}
	}

	// Merger: replays per-entry candidate lists in entry-name order through
	// a global dedup, reproducing the sequential engine's bugSink behavior
	// across entries — the first sighting keeps the candidate, later
	// sightings append their primary path and then their own alternates as
	// AltPaths (capped), each sighting counting one repeated drop.
	merged := &Result{}
	var recs []*candRec
	mergeDone := make(chan struct{})
	go func() {
		defer close(mergeDone)
		type mergeKey struct {
			checker string
			origin  int
			bug     int
		}
		seen := make(map[mergeKey]*PossibleBug)
		pending := make(map[int]*Result)
		next := 0
		for er := range resCh {
			pending[er.idx] = er.res
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				merged.Incomplete = append(merged.Incomplete, r.Incomplete...)
				s := &merged.Stats
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
				var batch []*candRec
				for _, pb := range r.Possible {
					k := mergeKey{checker: pb.Checker.Name(), origin: pb.OriginGID, bug: pb.BugInstr.GID()}
					if prev, dup := seen[k]; dup {
						merged.Stats.RepeatedDropped++
						if len(prev.AltPaths) < maxAltPaths {
							prev.AltPaths = append(prev.AltPaths, pb.Path)
						}
						for _, alt := range pb.AltPaths {
							if len(prev.AltPaths) >= maxAltPaths {
								break
							}
							prev.AltPaths = append(prev.AltPaths, alt)
						}
						continue
					}
					seen[k] = pb
					merged.Possible = append(merged.Possible, pb)
					rec := &candRec{pb: pb}
					recs = append(recs, rec)
					if eager {
						prim := *pb
						prim.AltPaths = nil
						rec.prim = &prim
						if batching {
							batch = append(batch, rec)
						} else {
							vtasks <- []*candRec{rec}
						}
					}
				}
				if len(batch) > 0 {
					// One entry's worth of first-sighted candidates: exactly
					// the group the sequential engine hands its batch
					// validator, so the shared-prefix screening sees the same
					// formulas in both schedulers.
					vtasks <- batch
				}
			}
		}
	}()

	wg1.Wait()
	close(resCh)
	<-mergeDone
	merged.Stats.AnalysisTime = time.Since(start)
	close(vtasks)
	wgV.Wait()

	// Deferred pass: candidates whose primary path was infeasible try their
	// accumulated alternate witnesses in order, like the sequential
	// validator, but concurrently across candidates. This must wait for the
	// Stage-1 barrier because alternates keep arriving until the merge is
	// complete.
	vstart := time.Now()
	if validate && cache != nil {
		// Cached validation: one pass over the merged candidates, each
		// validated as a whole (primary, then alternates on infeasibility —
		// exactly the sequential Validator semantics) so the stored verdict
		// covers the candidate's final witness set. Replayed verdicts carry
		// zero in-memory verdict-cache counters: those describe solver work,
		// and a disk hit does none.
		vc := make(chan *candRec)
		var wgF sync.WaitGroup
		for i := 0; i < vworkers; i++ {
			wgF.Add(1)
			go func() {
				defer wgF.Done()
				var mySolver int64
				defer func() { atomic.AddInt64(&solverNanos, mySolver) }()
				for rec := range vc {
					key, keyed := verdictKey(salt, rec.pb, cfg.Mode)
					if keyed {
						if data, hit := cache.Load(key); hit {
							if out, ok := decodeVerdict(data); ok {
								rec.out = out
								continue
							}
						}
					}
					rec.out = validateGuarded(ctx, cfg, rec.pb, &mySolver)
					// An interrupted or panicked verdict is conservative,
					// not proven; persisting it would freeze a guess.
					if keyed && !rec.out.TimedOut && !rec.out.Panicked {
						cache.Save(key, encodeVerdict(rec.out))
					}
				}
			}()
		}
		for _, rec := range recs {
			vc <- rec
		}
		close(vc)
		wgF.Wait()
	} else if validate {
		altCh := make(chan *candRec)
		var wgA sync.WaitGroup
		for i := 0; i < vworkers; i++ {
			wgA.Add(1)
			go func() {
				defer wgA.Done()
				var mySolver int64
				defer func() { atomic.AddInt64(&solverNanos, mySolver) }()
				for rec := range altCh {
					alt := *rec.pb
					alt.Path = rec.pb.AltPaths[0]
					alt.AltPaths = rec.pb.AltPaths[1:]
					out := validateGuarded(ctx, cfg, &alt, &mySolver)
					rec.out.Feasible = out.Feasible
					rec.out.Constraints += out.Constraints
					rec.out.ConstraintsUnaware += out.ConstraintsUnaware
					rec.out.CacheHits += out.CacheHits
					rec.out.CacheMisses += out.CacheMisses
					rec.out.CacheEvictions += out.CacheEvictions
					rec.out.Disagreements += out.Disagreements
					rec.out.TimedOut = rec.out.TimedOut || out.TimedOut
					rec.out.Panicked = rec.out.Panicked || out.Panicked
					// Trigger stays the primary path's, matching the
					// sequential validator.
				}
			}()
		}
		for _, rec := range recs {
			if !rec.out.Feasible && len(rec.pb.AltPaths) > 0 {
				altCh <- rec
			}
		}
		close(altCh)
		wgA.Wait()
	}

	for _, rec := range recs {
		b := &Bug{PossibleBug: rec.pb}
		if validate {
			merged.Stats.addValidation(rec.out)
			if !rec.out.Feasible {
				merged.Stats.FalseDropped++
				continue
			}
			b.Validated = !rec.out.Panicked
			b.Trigger = rec.out.Trigger
		}
		merged.Bugs = append(merged.Bugs, b)
	}
	merged.Stats.PossibleBugs = int64(len(merged.Possible)) + merged.Stats.RepeatedDropped
	merged.Stats.WorkSteals = atomic.LoadInt64(&steals)
	merged.Stats.SolverNanos += atomic.LoadInt64(&solverNanos)
	merged.Stats.ValidationTime = time.Since(vstart)
	return merged
}
