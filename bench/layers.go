package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	pata "repro"
	"repro/internal/acache"
	"repro/internal/callgraph"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/patad"
	"repro/internal/report"
)

// layerMetrics is the per_layer set of BENCHMARK.json, in order: every
// traced run prints all of them, with 0 where a workload does not reach a
// layer.
var layerMetrics = []struct{ name, unit string }{
	{"io.read_ms", "ms"},
	{"minicc.parse_ms", "ms"},
	{"minicc.lower_ms", "ms"},
	{"minicc.preprocess_ms", "ms"},
	{"minicc.tokenize_ms", "ms"},
	{"minicc.lines_per_ms", "lines/ms"},
	{"minicc.tokens", "count"},
	{"cir.verify_ms", "ms"},
	{"cir.gids_ms", "ms"},
	{"cir.fingerprint_ms", "ms"},
	{"cir.functions", "count"},
	{"cir.instrs", "count"},
	{"callgraph.build_ms", "ms"},
	{"callgraph.entry_keys_ms", "ms"},
	{"callgraph.entries", "count"},
	{"core.run_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.stage1_ms", "ms"},
	{"core.steps", "count"},
	{"core.paths", "count"},
	{"core.typestates", "count"},
	{"core.possible_bugs", "count"},
	{"core.repeated_dropped", "count"},
	{"core.steps_per_ms", "steps/ms"},
	{"core.work_steals", "count"},
	{"core.budgeted", "count"},
	{"core.light_ratio", "ratio"},
	{"core.pruned_branches", "count"},
	{"core.memo_hits", "count"},
	{"core.summary_hits", "count"},
	{"pathval.busy_ms", "ms"},
	{"pathval.calls", "count"},
	{"pathval.candidates", "count"},
	{"pathval.us_per_candidate", "us"},
	{"pathval.drop_ratio", "ratio"},
	{"pathval.verdict_hit_ratio", "ratio"},
	{"pathval.batched_solves", "count"},
	{"pathval.batch_fallbacks", "count"},
	{"pathval.prefix_atoms_shared", "count"},
	{"pathval.constraints", "count"},
	{"acache.load_ms", "ms"},
	{"acache.save_ms", "ms"},
	{"acache.loads", "count"},
	{"acache.hit_ratio", "ratio"},
	{"acache.saves", "count"},
	{"acache.kb_loaded", "KB"},
	{"acache.kb_saved", "KB"},
	{"report.render_ms", "ms"},
	{"patad.invalidate_p50_ms", "ms"},
	{"patad.analyze_after_edit_p50_ms", "ms"},
	{"patad.frontier", "count"},
	{"patad.misses_per_edit", "count"},
	{"patad.response_kb", "KB"},
	{"patad.shed", "count"},
	{"process.unattributed_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"harness.ref_ms", "ms"},
}

// counters are counted at the decorated layer boundaries during one op.
type counters struct {
	pvCalls, pvCandidates                 atomic.Int64
	loads, hits, saves, bytesIn, bytesOut atomic.Int64
}

// instrument wraps the Stage-2 hooks and the capsule store of ec so that
// every call records a span under parent and bumps c. A nil recorder
// leaves ec as it is.
func instrument(ec core.Config, rec *recorder, parent int, c *counters) core.Config {
	if rec == nil {
		return ec
	}
	if vp := ec.ValidatePath; vp != nil {
		ec.ValidatePath = func(ctx context.Context, bug *core.PossibleBug, mode core.Mode) core.ValidationOutcome {
			id := rec.begin("pathval.validate", parent)
			defer rec.end(id)
			c.pvCalls.Add(1)
			c.pvCandidates.Add(1)
			return vp(ctx, bug, mode)
		}
	}
	if vb := ec.ValidateBatch; vb != nil {
		ec.ValidateBatch = func(ctx context.Context, bugs []*core.PossibleBug, mode core.Mode) []core.ValidationOutcome {
			id := rec.begin("pathval.batch", parent)
			defer rec.end(id)
			c.pvCalls.Add(1)
			c.pvCandidates.Add(int64(len(bugs)))
			return vb(ctx, bugs, mode)
		}
	}
	if ec.Cache != nil {
		ec.Cache = &timedCache{inner: ec.Cache, rec: rec, parent: parent, c: c}
	}
	return ec
}

// timedCache is the capsule store with a span around every call.
type timedCache struct {
	inner  core.EntryCache
	rec    *recorder
	parent int
	c      *counters
}

func (t *timedCache) Load(key string) ([]byte, bool) {
	id := t.rec.begin("acache.load", t.parent)
	data, ok := t.inner.Load(key)
	t.rec.end(id)
	t.c.loads.Add(1)
	if ok {
		t.c.hits.Add(1)
		t.c.bytesIn.Add(int64(len(data)))
	}
	return data, ok
}

func (t *timedCache) Save(key string, data []byte) {
	id := t.rec.begin("acache.save", t.parent)
	t.inner.Save(key, data)
	t.rec.end(id)
	t.c.saves.Add(1)
	t.c.bytesOut.Add(int64(len(data)))
}

// opOut is what one in-process op leaves for the metrics.
type opOut struct {
	stats    core.Stats
	mod      *cir.Module // the module the op analyzed
	bugs     []pata.Bug
	counters *counters
	tokens   int // counted by the probe that follows a traced op
}

// pipeline replays a workload's op in-process through the public calls
// the CLI (pata.AnalyzeSourcesCtx) or the daemon's request handlers make,
// in their order, with a span around each.
type pipeline struct {
	w         workload
	corpusDir string
	paths     []string
	// Daemon state: sources and module of the current epoch, the engine
	// configuration resolved once (so the verdict cache stays warm across
	// requests, as in patad), and its capsule store.
	sources map[string]string
	mod     *cir.Module
	ec      core.Config
	ed      *editor
}

func newPipeline(ctx context.Context, w workload, corpusDir, cacheDir string, seed int64) (*pipeline, error) {
	paths, err := pata.SourcePaths(corpusDir)
	if err != nil {
		return nil, err
	}
	p := &pipeline{w: w, corpusDir: corpusDir, paths: paths}
	if w.kind == scan {
		return p, nil
	}
	if p.sources, err = pata.ReadSources(paths); err != nil {
		return nil, err
	}
	if p.mod, err = lower(nil, -1, p.sources); err != nil {
		return nil, err
	}
	for _, fn := range p.mod.SortedFuncs() {
		fn.Fingerprint()
	}
	if p.ec, err = engineConfig(false); err != nil {
		return nil, err
	}
	store, err := acache.Open(cacheDir, 0)
	if err != nil {
		return nil, err
	}
	p.ec.Cache = store
	// The cold analyze that fills the store, as in the daemon's set-up.
	core.RunParallelCtx(ctx, p.mod, p.ec, 0)
	rel := make(map[string]string, len(p.sources))
	for name, src := range p.sources {
		rel[relFile(name, corpusDir)] = src
	}
	p.ed = &editor{cur: rel, seed: seed, prefix: corpusDir + string(filepath.Separator)}
	return p, nil
}

// engineConfig resolves the configuration cmd/pata and cmd/patad run with
// by default.
func engineConfig(skipValidation bool) (core.Config, error) {
	return pata.Config{LoopUnroll: 1, SkipValidation: skipValidation}.EngineConfig()
}

// lower is minicc.LowerAll split at its layer boundaries.
func lower(rec *recorder, parent int, sources map[string]string) (*cir.Module, error) {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	mod := cir.NewModule("program")
	for _, n := range names {
		id := rec.begin("minicc.parse", parent)
		f, err := minicc.Parse(n, sources[n])
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin("minicc.lower", parent)
		err = minicc.LowerFile(mod, f)
		rec.end(id)
		if err != nil {
			return nil, err
		}
	}
	id := rec.begin("cir.gids", parent)
	mod.AssignGIDs()
	rec.end(id)
	id = rec.begin("cir.verify", parent)
	err := cir.Verify(mod)
	rec.end(id)
	return mod, err
}

// op runs one op of the workload under a root span named "op".
func (p *pipeline) op(ctx context.Context, rec *recorder) (opOut, error) {
	root := rec.begin("op", -1)
	defer rec.end(root)
	switch p.w.kind {
	case scan:
		return p.scanOp(ctx, rec, root)
	case serveEdit:
		if err := p.invalidate(rec, root); err != nil {
			return opOut{}, err
		}
	}
	return p.analyze(ctx, rec, root)
}

// scanOp is pata.AnalyzeDirCtx plus the CLI's -json rendering.
func (p *pipeline) scanOp(ctx context.Context, rec *recorder, root int) (opOut, error) {
	id := rec.begin("io.read", root)
	sources, err := pata.ReadSources(p.paths)
	rec.end(id)
	if err != nil {
		return opOut{}, err
	}
	mod, err := lower(rec, root, sources)
	if err != nil {
		return opOut{}, err
	}
	ec, err := engineConfig(false)
	if err != nil {
		return opOut{}, err
	}
	c := &counters{}
	run := rec.begin("core.run", root)
	res := core.RunParallelCtx(ctx, mod, instrument(ec, rec, run, c), 0)
	rec.end(run)

	id = rec.begin("report.render", root)
	pres := pata.ConvertResult(res, false)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(struct {
		Bugs       []pata.Bug             `json:"bugs"`
		Incomplete []pata.IncompleteEntry `json:"incomplete,omitempty"`
		Stats      pata.Stats             `json:"stats"`
	}{pres.Bugs, pres.Incomplete, pres.Stats})
	rec.end(id)
	return opOut{stats: res.Stats, mod: mod, bugs: pres.Bugs, counters: c}, err
}

// invalidate is patad's invalidate handler: apply an edit, re-lower every
// file, re-fingerprint the changed files' functions (adopting the rest),
// and compute the frontier from both epochs' call graphs.
func (p *pipeline) invalidate(rec *recorder, root int) error {
	next := make(map[string]string, len(p.sources))
	for k, v := range p.sources {
		next[k] = v
	}
	changedFiles := make(map[string]bool)
	for name, src := range p.ed.next() {
		next[name] = src
		changedFiles[name] = true
	}
	mod, err := lower(rec, root, next)
	if err != nil {
		return err
	}
	id := rec.begin("cir.fingerprint", root)
	for _, fn := range mod.SortedFuncs() {
		if !changedFiles[fn.File] {
			if old, ok := p.mod.Funcs[fn.Name]; ok && fn.AdoptFingerprint(old) {
				continue
			}
		}
		fn.Fingerprint()
	}
	rec.end(id)
	id = rec.begin("callgraph.build", root)
	oldCG, newCG := callgraph.Build(p.mod), callgraph.Build(mod)
	rec.end(id)
	id = rec.begin("callgraph.entry_keys", root)
	oldKeys := make(map[string]uint64)
	for _, fn := range oldCG.EntryFunctions() {
		oldKeys[fn.Name] = oldCG.EntryKey(fn, 0)
	}
	frontier := 0
	for _, fn := range newCG.EntryFunctions() {
		if key, ok := oldKeys[fn.Name]; !ok || key != newCG.EntryKey(fn, 0) {
			frontier++
		}
	}
	rec.end(id)
	// Publishing the epoch builds the graph once more, to count entries.
	id = rec.begin("callgraph.build", root)
	callgraph.Build(mod)
	rec.end(id)
	if frontier == 0 {
		return errors.New("edit changed no entry key")
	}
	p.sources, p.mod = next, mod
	return nil
}

// analyze is patad's analyze handler over the current epoch and store,
// including the response encoding.
func (p *pipeline) analyze(ctx context.Context, rec *recorder, root int) (opOut, error) {
	c := &counters{}
	run := rec.begin("core.run", root)
	res := core.RunParallelCtx(ctx, p.mod, instrument(p.ec, rec, run, c), 0)
	rec.end(run)

	id := rec.begin("report.render", root)
	pres := pata.ConvertResult(res, false)
	var text strings.Builder
	if len(pres.Bugs) == 0 {
		text.WriteString("no bugs found\n")
		report.WriteIncomplete(&text, pres.Incomplete)
	} else {
		fmt.Fprint(&text, pres)
	}
	_, err := json.Marshal(&patad.Response{Op: patad.OpAnalyze, OK: true, Report: text.String(),
		Bugs: pres.Bugs, Incomplete: pres.Incomplete, Stats: &pres.Stats})
	rec.end(id)
	return opOut{stats: res.Stats, mod: p.mod, bugs: pres.Bugs, counters: c}, err
}

// probe times, outside the op, what the op's calls do internally or what
// only set-up does: preprocessing and tokenizing (inside minicc.Parse),
// fingerprinting a fresh module and a call-graph key pass (inside
// core.RunParallelCtx with a cache, and the daemon's set-up), and Stage 1
// alone. It returns the token count.
func (p *pipeline) probe(ctx context.Context, rec *recorder, out opOut) (int, error) {
	root := rec.begin("probe", -1)
	defer rec.end(root)
	sources := p.sources
	if sources == nil {
		var err error
		if sources, err = pata.ReadSources(p.paths); err != nil {
			return 0, err
		}
	}
	tokens := 0
	for name, src := range sources {
		id := rec.begin("minicc.preprocess", root)
		text := minicc.Preprocess(src)
		rec.end(id)
		id = rec.begin("minicc.tokenize", root)
		toks, _ := minicc.Tokenize(name, text)
		rec.end(id)
		tokens += len(toks)
	}
	if p.w.kind == scan {
		mod := out.mod
		id := rec.begin("cir.fingerprint", root)
		for _, fn := range mod.SortedFuncs() {
			fn.Fingerprint()
		}
		rec.end(id)
		id = rec.begin("callgraph.build", root)
		cg := callgraph.Build(mod)
		rec.end(id)
		id = rec.begin("callgraph.entry_keys", root)
		for _, fn := range cg.EntryFunctions() {
			cg.EntryKey(fn, 0)
		}
		rec.end(id)
	}
	ec, err := engineConfig(true)
	if err != nil {
		return 0, err
	}
	id := rec.begin("core.stage1", root)
	core.RunParallelCtx(ctx, out.mod, ec, 0)
	rec.end(id)
	return tokens, nil
}

// blackBox runs the workload's real op — a pata process or a patad
// request — inside a traced run, interleaved with the in-process ops so
// that both see the same host.
type blackBox struct {
	ctx       context.Context
	e         *env
	r         *result
	corpusDir string
	want      string  // reference bug set, corpus-relative
	d         *daemon // serve-edit
	ed        *editor // serve-edit

	lat, inv, after, frontier, misses, size []float64
}

func startBlackBox(ctx context.Context, e *env, w workload, opts options, runDir string, r *result) (*blackBox, error) {
	bb := &blackBox{ctx: ctx, e: e, r: r}
	c := w.corpus(opts.seed, opts.scale)
	if w.kind == scan {
		bb.corpusDir = filepath.Join(runDir, "corpus")
		if err := writeCorpus(c, bb.corpusDir); err != nil {
			return nil, err
		}
		pr, err := runPata(ctx, e.pata, bb.corpusDir)
		if !r.check(err) {
			return nil, fmt.Errorf("first run failed: %v", err)
		}
		bb.want = bugSet(pr.bugs, bb.corpusDir)
		return bb, nil
	}
	dir := filepath.Join(runDir, "serve")
	d, _, err := serveStart(ctx, e, c, dir)
	if !r.check(err) {
		return nil, err
	}
	bb.d, bb.corpusDir = d, filepath.Join(dir, daemonCorpus)
	cold, _, err := d.analyze("")
	if !r.check(err) {
		d.kill()
		return nil, err
	}
	bb.want = bugSet(cold.Bugs, daemonCorpus)
	bb.ed = &editor{cur: c.Sources, seed: opts.seed, prefix: daemonCorpus + "/"}
	return bb, nil
}

// op makes one black-box op, checks it and records what it measured.
func (bb *blackBox) op() {
	if bb.d == nil {
		pr, err := runPata(bb.ctx, bb.e.pata, bb.corpusDir)
		if err == nil {
			err = sameBugs(bugSet(pr.bugs, bb.corpusDir), bb.want)
		}
		if bb.r.check(err) {
			bb.lat = append(bb.lat, ms(pr.wall))
		}
		return
	}
	o, err := bb.d.serveOp(bb.ed, bb.want)
	if !bb.r.check(err) {
		return
	}
	bb.lat = append(bb.lat, ms(o.total))
	bb.inv = append(bb.inv, ms(o.invalidate))
	bb.after = append(bb.after, ms(o.total-o.invalidate))
	bb.frontier = append(bb.frontier, float64(o.frontier))
	bb.misses = append(bb.misses, float64(o.misses))
	bb.size = append(bb.size, float64(o.size)/1024)
}

// finish ends the black-box side and adds the protocol metrics to m: the
// daemon's shed count from its status, then a clean shutdown.
func (bb *blackBox) finish(m map[string]float64) error {
	for _, k := range []string{"patad.invalidate_p50_ms", "patad.analyze_after_edit_p50_ms",
		"patad.frontier", "patad.misses_per_edit", "patad.response_kb", "patad.shed"} {
		m[k] = 0
	}
	if bb.d == nil {
		return nil
	}
	st, _, err := bb.d.call(patad.Request{Op: patad.OpStatus})
	if !bb.r.check(err) {
		return err
	}
	if err := bb.d.stop(); err != nil {
		return err
	}
	m["patad.response_kb"], m["patad.shed"] = median(bb.size), float64(st.Status.Shed)
	m["patad.invalidate_p50_ms"], m["patad.analyze_after_edit_p50_ms"] = median(bb.inv), median(bb.after)
	m["patad.frontier"], m["patad.misses_per_edit"] = median(bb.frontier), median(bb.misses)
	return nil
}

// kill stops a daemon left running by an error path; safe after finish.
func (bb *blackBox) kill() {
	if bb.d != nil {
		bb.d.kill()
	}
}

// traceRun is a -trace 1 run: in a loop until -seconds, one black-box op,
// one untraced in-process op, one traced in-process op followed by the
// probes, and the reference task. Every per-layer metric is a median over
// the traced ops.
func traceRun(ctx context.Context, e *env, w workload, opts options, runDir string, r *result) error {
	bb, err := startBlackBox(ctx, e, w, opts, runDir, r)
	if err != nil {
		return err
	}
	defer bb.kill()
	p, err := newPipeline(ctx, w, bb.corpusDir, filepath.Join(runDir, "inproc-cache"), opts.seed)
	if err != nil {
		return err
	}
	check := func(out opOut, err error) bool {
		if err == nil {
			err = sameBugs(bugSet(out.bugs, bb.corpusDir), bb.want)
		}
		return r.check(err)
	}
	check(p.op(ctx, nil)) // warm-up

	rec := newRecorder()
	var (
		plain, traced, refs []float64
		runs                []int
		outs                = map[int]opOut{}
	)
	deadline := time.Now().Add(time.Duration(opts.seconds) * time.Second)
	for n := 0; opts.until(deadline, n); n++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		bb.op()
		start := time.Now()
		out, err := p.op(ctx, nil)
		if check(out, err) {
			plain = append(plain, ms(time.Since(start)))
		}
		rec.setRun(n)
		start = time.Now()
		out, err = p.op(ctx, rec)
		elapsed := ms(time.Since(start))
		if check(out, err) {
			out.tokens, err = p.probe(ctx, rec, out)
			if r.check(err) {
				traced = append(traced, elapsed)
				runs = append(runs, n)
				outs[n] = out
			}
		}
		ref, err := e.runRef(ctx)
		if err != nil {
			return err
		}
		refs = append(refs, ms(ref.wall))
	}
	if len(runs) == 0 || len(plain) == 0 || len(bb.lat) == 0 {
		return errors.New("no traced, untraced or black-box op succeeded")
	}
	if opts.traceOut != "" {
		if err := rec.writeFile(opts.traceOut); err != nil {
			return err
		}
	}

	ix := indexSpans(rec.snapshot())
	sum := func(names ...string) float64 {
		return ix.medianMs(runs, func(s span) time.Duration {
			for _, n := range names {
				if s.Name == n {
					return s.dur()
				}
			}
			return 0
		})
	}
	per := func(f func(o opOut) float64) float64 {
		xs := make([]float64, len(runs))
		for i, n := range runs {
			xs[i] = f(outs[n])
		}
		return median(xs)
	}
	stat := func(f func(s core.Stats) int64) float64 {
		return per(func(o opOut) float64 { return float64(f(o.stats)) })
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m := map[string]float64{}
	m["io.read_ms"] = sum("io.read")
	m["minicc.parse_ms"] = sum("minicc.parse")
	m["minicc.lower_ms"] = sum("minicc.lower")
	m["minicc.preprocess_ms"] = sum("minicc.preprocess")
	m["minicc.tokenize_ms"] = sum("minicc.tokenize")
	if front := m["minicc.parse_ms"] + m["minicc.lower_ms"]; front > 0 {
		m["minicc.lines_per_ms"] = per(func(o opOut) float64 { return float64(o.mod.SourceLines) }) / front
	} else {
		m["minicc.lines_per_ms"] = 0
	}
	m["minicc.tokens"] = per(func(o opOut) float64 { return float64(o.tokens) })
	m["cir.verify_ms"] = sum("cir.verify")
	m["cir.gids_ms"] = sum("cir.gids")
	m["cir.fingerprint_ms"] = sum("cir.fingerprint")
	m["cir.functions"] = per(func(o opOut) float64 { return float64(len(o.mod.Funcs)) })
	m["cir.instrs"] = per(func(o opOut) float64 { return float64(o.mod.NumInstrs()) })
	m["callgraph.build_ms"] = sum("callgraph.build")
	m["callgraph.entry_keys_ms"] = sum("callgraph.entry_keys")
	m["callgraph.entries"] = stat(func(s core.Stats) int64 { return int64(s.EntryFunctions) })

	m["core.run_ms"] = sum("core.run")
	m["core.self_ms"] = ix.medianMs(runs, func(s span) time.Duration {
		if s.Name == "core.run" {
			return ix.selfTime(s.ID)
		}
		return 0
	})
	m["core.stage1_ms"] = sum("core.stage1")
	m["core.steps"] = stat(func(s core.Stats) int64 { return s.StepsExecuted })
	m["core.paths"] = stat(func(s core.Stats) int64 { return s.PathsExplored })
	m["core.typestates"] = stat(func(s core.Stats) int64 { return s.Typestates })
	m["core.possible_bugs"] = stat(func(s core.Stats) int64 { return s.PossibleBugs })
	m["core.repeated_dropped"] = stat(func(s core.Stats) int64 { return s.RepeatedDropped })
	m["core.steps_per_ms"] = ratio(m["core.steps"], m["core.run_ms"])
	m["core.work_steals"] = stat(func(s core.Stats) int64 { return s.WorkSteals })
	m["core.budgeted"] = stat(func(s core.Stats) int64 { return int64(s.Budgeted) })
	m["core.light_ratio"] = per(func(o opOut) float64 {
		return ratio(float64(o.stats.AdaptiveEntriesLight), float64(o.stats.EntryFunctions))
	})
	m["core.pruned_branches"] = stat(func(s core.Stats) int64 { return s.PrunedBranches })
	m["core.memo_hits"] = stat(func(s core.Stats) int64 { return s.MemoHits })
	m["core.summary_hits"] = stat(func(s core.Stats) int64 { return s.SummaryHits })

	m["pathval.busy_ms"] = sum("pathval.validate", "pathval.batch")
	m["pathval.calls"] = per(func(o opOut) float64 { return float64(o.counters.pvCalls.Load()) })
	m["pathval.candidates"] = per(func(o opOut) float64 { return float64(o.counters.pvCandidates.Load()) })
	m["pathval.us_per_candidate"] = ratio(1000*m["pathval.busy_ms"], m["pathval.candidates"])
	// Stats, not the hook counters: replayed entries carry their verdicts.
	m["pathval.drop_ratio"] = per(func(o opOut) float64 {
		return ratio(float64(o.stats.FalseDropped), float64(o.stats.PossibleBugs-o.stats.RepeatedDropped))
	})
	m["pathval.verdict_hit_ratio"] = per(func(o opOut) float64 {
		return ratio(float64(o.stats.ValidationCacheHits), float64(o.stats.ValidationCacheHits+o.stats.ValidationCacheMisses))
	})
	m["pathval.batched_solves"] = stat(func(s core.Stats) int64 { return s.BatchedSolves })
	m["pathval.batch_fallbacks"] = stat(func(s core.Stats) int64 { return s.BatchFallbacks })
	m["pathval.prefix_atoms_shared"] = stat(func(s core.Stats) int64 { return s.PrefixAtomsShared })
	m["pathval.constraints"] = stat(func(s core.Stats) int64 { return s.Constraints })

	m["acache.load_ms"] = sum("acache.load")
	m["acache.save_ms"] = sum("acache.save")
	m["acache.loads"] = per(func(o opOut) float64 { return float64(o.counters.loads.Load()) })
	m["acache.hit_ratio"] = per(func(o opOut) float64 {
		return ratio(float64(o.counters.hits.Load()), float64(o.counters.loads.Load()))
	})
	m["acache.saves"] = per(func(o opOut) float64 { return float64(o.counters.saves.Load()) })
	m["acache.kb_loaded"] = per(func(o opOut) float64 { return float64(o.counters.bytesIn.Load()) / 1024 })
	m["acache.kb_saved"] = per(func(o opOut) float64 { return float64(o.counters.bytesOut.Load()) / 1024 })
	m["report.render_ms"] = sum("report.render")

	if err := bb.finish(m); err != nil {
		return err
	}

	layerSum := ix.medianMs(runs, func(s span) time.Duration {
		if s.Name == "op" {
			return ix.childCover(s.ID)
		}
		return 0
	})
	m["process.unattributed_ms"] = median(bb.lat) - layerSum
	m["trace.overhead_pct"] = 100 * ratio(median(traced)-median(plain), median(plain))
	m["harness.ref_ms"] = median(refs)

	for _, lm := range layerMetrics {
		v, ok := m[lm.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not computed", lm.name)
		}
		r.add(lm.name, v, lm.unit)
	}
	r.extra("op_p50_ms", median(bb.lat), "ms", fmt.Sprintf("black-box n=%d", len(bb.lat)))
	r.extra("op_traced_p50_ms", median(traced), "ms", fmt.Sprintf("in-process n=%d", len(traced)))
	r.extra("op_untraced_p50_ms", median(plain), "ms", fmt.Sprintf("in-process n=%d", len(plain)))
	r.extra("layer_sum_ms", layerSum, "ms", "")
	return nil
}
