package patad

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	pata "repro"
	"repro/internal/acache"
)

// removeCapsules deletes the capsule pack in dir, leaving the store's
// in-memory index as the only copy of the payloads.
func removeCapsules(t *testing.T, dir string) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, acache.PackFile)); err != nil {
		t.Fatal(err)
	}
}

func analyzeOK(t *testing.T, srv *Server) *Response {
	t.Helper()
	resp := srv.analyze(context.Background(), &Request{Op: OpAnalyze})
	if !resp.OK {
		t.Fatalf("analyze failed: %s", resp.Error)
	}
	return resp
}

func wantHits(t *testing.T, resp *Response, hit, miss int64) {
	t.Helper()
	if resp.Stats.CacheEntriesHit != hit || resp.Stats.CacheEntriesMiss != miss {
		t.Errorf("cache: hit=%d miss=%d, want %d/%d",
			resp.Stats.CacheEntriesHit, resp.Stats.CacheEntriesMiss, hit, miss)
	}
}

// TestIndexServesWithoutPackFile: the capsule store's in-memory index
// serves every load, so once an analyze has touched every key, a
// re-analyze of the same epoch hits 100% with the pack file gone, and
// after an invalidate only the frontier misses. Every analyze loads each
// entry's key, carried entries included, so EndRun never retires a key
// the next analyze replays.
func TestIndexServesWithoutPackFile(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Options{Config: pata.Config{CacheDir: dir}})
	cold := analyzeOK(t, srv)
	analyzeOK(t, srv)
	removeCapsules(t, dir)

	warm := analyzeOK(t, srv)
	wantHits(t, warm, 2, 0)
	if warm.Report != cold.Report {
		t.Errorf("memory-served report differs from cold:\n--- cold\n%s--- warm\n%s", cold.Report, warm.Report)
	}

	edited := strings.Replace(srcBeta, "x > 0", "x > 1", 1)
	if inv := srv.invalidate(&Request{Op: OpInvalidate, Sources: map[string]string{"b.c": edited}}); !inv.OK {
		t.Fatalf("invalidate failed: %s", inv.Error)
	}
	wantHits(t, analyzeOK(t, srv), 1, 1)
}

// TestEndRunDropsUntouchedKeys: EndRun after an analyze retires every key
// that analyze did not load or save, so no later analyze can hit it. Beta's
// original capsule goes untouched while beta is edited; reverting the edit
// must miss beta, with or without the pack on disk — neither the index nor
// state carried from an earlier epoch may replay it.
func TestEndRunDropsUntouchedKeys(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Options{Config: pata.Config{CacheDir: dir}})
	analyzeOK(t, srv)
	before := srv.status(&Request{Op: OpStatus}).Status

	edited := strings.Replace(srcBeta, "x > 0", "x > 1", 1)
	if inv := srv.invalidate(&Request{Op: OpInvalidate, Sources: map[string]string{"b.c": edited}}); !inv.OK {
		t.Fatalf("invalidate failed: %s", inv.Error)
	}
	wantHits(t, analyzeOK(t, srv), 1, 1)
	after := srv.status(&Request{Op: OpStatus}).Status
	// Beta's old capsule left and its new one arrived: the count is
	// unchanged.
	if after.ResidentEntries != before.ResidentEntries {
		t.Errorf("resident entries %d after the edit, want %d", after.ResidentEntries, before.ResidentEntries)
	}

	if inv := srv.invalidate(&Request{Op: OpInvalidate, Sources: map[string]string{"b.c": srcBeta}}); !inv.OK {
		t.Fatalf("revert failed: %s", inv.Error)
	}
	removeCapsules(t, dir)
	wantHits(t, analyzeOK(t, srv), 1, 1)
}

// TestStatusIndexJSONShape pins the status payload's capsule-store keys,
// resident_entries and resident_kb (the store's in-memory index) and
// pack_kb: zero without a cache directory, nonzero once an analyze has
// filled the store.
func TestStatusIndexJSONShape(t *testing.T) {
	statusJSON := func(srv *Server) map[string]any {
		t.Helper()
		data, err := json.Marshal(srv.status(&Request{Op: OpStatus}).Status)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	uncached := newTestServer(t, Options{})
	analyzeOK(t, uncached)
	m := statusJSON(uncached)
	if m["resident_entries"] != float64(0) || m["resident_kb"] != float64(0) || m["pack_kb"] != float64(0) {
		t.Errorf("uncached daemon status: resident_entries=%v resident_kb=%v pack_kb=%v, want 0/0/0",
			m["resident_entries"], m["resident_kb"], m["pack_kb"])
	}

	cached := newTestServer(t, Options{Config: pata.Config{CacheDir: t.TempDir()}})
	analyzeOK(t, cached)
	m = statusJSON(cached)
	// Two entry capsules; the NPD candidate's verdict rides in its entry's.
	if m["resident_entries"] != float64(2) {
		t.Errorf("resident_entries = %v, want 2", m["resident_entries"])
	}
	if _, ok := m["resident_kb"].(float64); !ok {
		t.Errorf("resident_kb = %v (%T), want a number", m["resident_kb"], m["resident_kb"])
	}
	if kb, ok := m["pack_kb"].(float64); !ok || kb < m["resident_kb"].(float64) {
		t.Errorf("pack_kb = %v (%T), want a number no smaller than resident_kb %v", m["pack_kb"], m["pack_kb"], m["resident_kb"])
	}
}

// TestStatusPackKBTracksCompaction: each edit leaves its entry's old
// capsule as a dead frame in the pack, so pack_kb grows past resident_kb,
// and compaction brings it back: after every analyze the pack stays
// within twice the live frames (plus a KiB of frame and rounding slack).
func TestStatusPackKBTracksCompaction(t *testing.T) {
	const entries = 40
	src := func(i, bound int) string {
		return fmt.Sprintf(`
struct dev%[1]d { int flags; int mode; };
int f%02[1]d(struct dev%[1]d *d, int x) {
	if (x > %[2]d)
		x = x - 1;
	if (!d)
		return d->flags;
	return x;
}`, i, bound)
	}
	sources := map[string]string{}
	for i := 0; i < entries; i++ {
		sources[fmt.Sprintf("f%02d.c", i)] = src(i, i)
	}
	srv := newTestServer(t, Options{Sources: sources, Config: pata.Config{CacheDir: t.TempDir()}})
	analyzeOK(t, srv)
	grew, shrank := false, false
	last := int64(0)
	for edit := 1; edit <= 80; edit++ {
		inv := srv.invalidate(&Request{Op: OpInvalidate, Sources: map[string]string{"f00.c": src(0, 100+edit)}})
		if !inv.OK {
			t.Fatalf("invalidate %d: %s", edit, inv.Error)
		}
		wantHits(t, analyzeOK(t, srv), entries-1, 1)
		st := srv.status(&Request{Op: OpStatus}).Status
		if st.ResidentEntries != entries {
			t.Fatalf("edit %d: resident_entries = %d, want %d", edit, st.ResidentEntries, entries)
		}
		if st.PackKB > 2*st.ResidentKB+1 {
			t.Fatalf("edit %d: pack_kb %d for resident_kb %d", edit, st.PackKB, st.ResidentKB)
		}
		grew = grew || st.PackKB > st.ResidentKB
		shrank = shrank || st.PackKB < last
		last = st.PackKB
	}
	if !grew || !shrank {
		t.Errorf("pack_kb never showed dead frames (%v) or a compaction (%v)", grew, shrank)
	}
}
