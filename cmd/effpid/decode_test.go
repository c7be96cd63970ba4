package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"effpi"
)

// TestNegativeRequestFieldsRejected: max_states, parallelism and
// timeout_ms are "0 = server default", so a negative value is a
// malformed request. A negative max_states used to pass the admission
// cap and then reach the exploration as "unset", which explored the
// full space on a server whose operator capped it.
func TestNegativeRequestFieldsRejected(t *testing.T) {
	ts := testServer(t, serverConfig{maxStatesCap: 100})
	const row = `"system": "Dining philos. (6, deadlock)"`
	cases := []struct{ field, body string }{
		{"max_states", `{` + row + `, "max_states": -1}`},
		{"parallelism", `{` + row + `, "parallelism": -2}`},
		{"timeout_ms", `{` + row + `, "timeout_ms": -5}`},
	}
	for _, tc := range cases {
		code, buf := postVerify(t, ts, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("negative %s: status %d, want 400 (%s)", tc.field, code, buf)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(buf, &e); err != nil {
			t.Errorf("negative %s: error body is not JSON: %s", tc.field, buf)
			continue
		}
		if e.Kind != "bad-request" {
			t.Errorf("negative %s: kind %q, want bad-request", tc.field, e.Kind)
		}
		if !strings.Contains(e.Error, tc.field) {
			t.Errorf("negative %s: error %q does not name the field", tc.field, e.Error)
		}
	}
	// The cap itself still holds.
	if code, buf := postVerify(t, ts, `{`+row+`, "max_states": 1000}`); code != http.StatusBadRequest {
		t.Errorf("max_states above the cap: status %d, want 400 (%s)", code, buf)
	}
}

// FuzzDecodeVerifyRequest drives the request decoder with arbitrary
// bodies on a server with a max_states cap. Every input either gets a
// 4xx with a JSON {error, kind} body, or decodes to a request whose
// numeric fields are within the admission bounds; it never panics.
// Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeVerifyRequest$' -fuzztime 20s ./cmd/effpid/
func FuzzDecodeVerifyRequest(f *testing.F) {
	const maxStatesCap = 100
	srv := newServer(effpi.NewWorkspace(), serverConfig{maxStatesCap: maxStatesCap, defaultTimeout: time.Second})
	f.Cleanup(srv.Close)
	for _, body := range []string{
		`{"system": "Dining philos. (5, deadlock)", "max_states": 50, "parallelism": 2, "timeout_ms": 100}`,
		`{"source": "send(c, 1, fun (_: Unit) => end)", "binds": [{"name": "c", "type": "Chan[Int]"}], "properties": [{"kind": "deadlock-free", "channels": ["c"]}]}`,
		`{"go_source": "package p\n", "entry": "Main", "symmetry": "on", "partial_order": "off", "early_exit": true}`,
		`{"system": "Dining philos. (6, deadlock)", "max_states": -1}`,
		`{"system": "Dining philos. (6, deadlock)", "parallelism": -2}`,
		`{"system": "Dining philos. (6, deadlock)", "timeout_ms": -5}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body))
		req, timeout, ok := srv.decodeVerifyRequest(w, r)
		if !ok {
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("rejected with status %d, want 4xx (%s)", w.Code, w.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" || e.Kind == "" {
				t.Fatalf("rejection body is not a JSON {error, kind}: %q (%v)", w.Body, err)
			}
			return
		}
		if w.Body.Len() != 0 {
			t.Fatalf("accepted request wrote a response: %s", w.Body)
		}
		if req.MaxStates < 0 || req.MaxStates > maxStatesCap || req.Parallelism < 0 || req.TimeoutMS < 0 {
			t.Fatalf("accepted out-of-bounds request: max_states %d, parallelism %d, timeout_ms %d",
				req.MaxStates, req.Parallelism, req.TimeoutMS)
		}
		if timeout <= 0 {
			t.Fatalf("accepted request with deadline %v", timeout)
		}
	})
}
