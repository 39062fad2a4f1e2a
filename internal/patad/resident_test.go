package patad

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	pata "repro"
)

// removeCapsules deletes every capsule file in dir, leaving the resident
// tier as the only copy of the payloads.
func removeCapsules(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.capsule"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no capsule files to remove")
	}
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
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

// TestResidentTierServesWithoutCapsuleFiles: once an analyze has touched
// every key, a re-analyze of the same epoch is served from memory alone —
// 100% hits with every capsule file gone — and after an invalidate only
// the frontier misses.
func TestResidentTierServesWithoutCapsuleFiles(t *testing.T) {
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

// TestResidentTierDropsUntouchedKeys: an analyze retires every key it did
// not touch, so the analyze after it cannot read them from memory. Beta's
// original capsule goes untouched while beta is edited; reverting the edit
// with the capsule files gone must miss beta instead of replaying it from
// memory.
func TestResidentTierDropsUntouchedKeys(t *testing.T) {
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

// TestStatusResidentJSONShape pins the status payload's resident-tier
// keys: zero without a cache directory, nonzero once an analyze has
// filled the tier.
func TestStatusResidentJSONShape(t *testing.T) {
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
	if m["resident_entries"] != float64(0) || m["resident_kb"] != float64(0) {
		t.Errorf("uncached daemon status: resident_entries=%v resident_kb=%v, want 0/0",
			m["resident_entries"], m["resident_kb"])
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
}
