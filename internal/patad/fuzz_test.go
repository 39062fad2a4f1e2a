package patad

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzSession feeds arbitrary NDJSON to one session on the two-file test
// server. No panic may escape, and every non-blank line up to the end of
// the stream, or up to a shutdown request (which ends the session), gets
// exactly one well-formed JSON response; a failed one carries an error.
//
//	go test -run='^$' -fuzz='^FuzzSession$' -fuzztime=10s ./internal/patad/
func FuzzSession(f *testing.F) {
	for _, seed := range []string{
		`{"op":"ping","id":"p"}` + "\n" + `{"op":"status"}`,
		"{not json\n\n   \n" + `{"op":"frobnicate","id":7}` + "\nnull\n\"str\"",
		`{"op":"analyze","id":"a1"}` + "\n" +
			`{"op":"invalidate","id":"i","sources":{"b.c":"int beta(int x) { return x; }"}}` + "\n" +
			`{"op":"analyze","id":"a2","witness":true}`,
		`{"op":"invalidate","sources":{"b.c":"int beta( {"}}` + "\n" + `{"op":"analyze"}` + "\n" + `{"op":"status"}`,
		`{"op":"invalidate","remove":["a.c"]}` + "\n" + `{"op":"invalidate","remove":["b.c"]}` + "\n" +
			`{"op":"analyze","timeout_ms":1}`,
		`{"op":"invalidate","sources":{"c.c":"int gamma(int *p) { return *p; }"}}` + "\n" +
			`{"op":"analyze"}` + "\n" + `{"op":"analyze"}` + "\n" + `{"op":"invalidate","remove":["c.c"]}`,
		`{"op":"analyze"}` + "\n" + `{"op":"shutdown","id":"s"}` + "\n" + `{"op":"ping"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := newTestServer(t, Options{DefaultTimeout: time.Second})
		var out bytes.Buffer
		srv.ServeStream(bytes.NewReader(data), &out)

		want := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			want++
			var req Request
			if json.Unmarshal(line, &req) == nil && req.Op == OpShutdown {
				break
			}
		}
		var got []Response
		for _, line := range bytes.SplitAfter(out.Bytes(), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var resp Response
			if err := json.Unmarshal(line, &resp); err != nil || line[len(line)-1] != '\n' {
				t.Fatalf("malformed response line %q: %v", line, err)
			}
			if !resp.OK && resp.Error == "" {
				t.Errorf("failed response without an error: %q", line)
			}
			got = append(got, resp)
		}
		if len(got) != want {
			t.Fatalf("%d responses to %d request lines:\n%s", len(got), want, out.Bytes())
		}
	})
}
