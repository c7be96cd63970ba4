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

// TestHugeTimeoutTakesTheCap: timeout_ms is checked against the cap
// before it becomes a time.Duration. 9223372036855 ms wraps to about
// −2.56M h and 18446744073710 ms to +448 µs; the first used to slip past
// -max-timeout and run with no deadline at all, the second timed out at
// once. Both are over the cap, so both resolve to it, and without a cap
// the out-of-range value is a 400.
func TestHugeTimeoutTakesTheCap(t *testing.T) {
	const maxTimeout = 5 * time.Minute
	capped := newServer(effpi.NewWorkspace(), serverConfig{defaultTimeout: time.Second, maxTimeout: maxTimeout})
	t.Cleanup(capped.Close)
	uncapped := newServer(effpi.NewWorkspace(), serverConfig{defaultTimeout: time.Second})
	t.Cleanup(uncapped.Close)
	decode := func(srv *server, ms string) (time.Duration, *httptest.ResponseRecorder, bool) {
		w := httptest.NewRecorder()
		body := `{"system": "Dining philos. (5, deadlock)", "timeout_ms": ` + ms + `}`
		_, timeout, ok := srv.decodeVerifyRequest(w, httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body)))
		return timeout, w, ok
	}
	for _, ms := range []string{"9223372036855", "18446744073710"} {
		timeout, w, ok := decode(capped, ms)
		if !ok || timeout != maxTimeout {
			t.Errorf("timeout_ms %s with a %v cap: deadline %v (accepted %v, %s), want the cap", ms, maxTimeout, timeout, ok, w.Body)
		}
	}
	if timeout, _, ok := decode(capped, "1500"); !ok || timeout != 1500*time.Millisecond {
		t.Errorf("timeout_ms 1500 under the cap: deadline %v (accepted %v), want 1.5s", timeout, ok)
	}
	if _, w, ok := decode(uncapped, "9223372036855"); ok || w.Code != http.StatusBadRequest {
		t.Errorf("unrepresentable timeout_ms without a cap: accepted %v, status %d, want 400", ok, w.Code)
	}
	if timeout, _, ok := decode(uncapped, "9223372036854"); !ok || timeout <= 0 {
		t.Errorf("largest representable timeout_ms without a cap: deadline %v (accepted %v), want it kept", timeout, ok)
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
		`{"system": "Dining philos. (6, deadlock)", "timeout_ms": 9223372036855}`,
		`{"system": "Dining philos. (6, deadlock)", "timeout_ms": 18446744073710}`,
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
