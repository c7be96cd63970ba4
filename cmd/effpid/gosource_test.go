package main

// Tests of the go_source request flavour: a Go protocol file is
// statically extracted in-service, verified, and FAIL witnesses carry
// the source positions of the extracted actions.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// stuckGoSource deadlocks after one handshake on a: both components
// then wait to receive on b, which nobody sends on.
const stuckGoSource = `package p

import rt "effpi/internal/runtime"

func Stuck() rt.Proc {
	a := rt.NewChan()
	b := rt.NewChan()
	return rt.Par{Procs: []rt.Proc{
		rt.Send{Ch: a, Val: 1, Cont: func() rt.Proc {
			return rt.Recv{Ch: b, Cont: func(x any) rt.Proc { return rt.End{} }}
		}},
		rt.Recv{Ch: a, Cont: func(x any) rt.Proc {
			return rt.Recv{Ch: b, Cont: func(y any) rt.Proc { return rt.End{} }}
		}},
	}}
}
`

func marshalReq(t *testing.T, req map[string]any) string {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestGoSourceVerifyWitnessPositions(t *testing.T) {
	ts := testServer(t, serverConfig{})
	body := marshalReq(t, map[string]any{
		"go_source":  stuckGoSource,
		"properties": []map[string]any{{"kind": "deadlock-free"}},
	})
	code, buf := postVerify(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, buf)
	}
	var resp verifyResponse
	if err := json.Unmarshal(buf, &resp); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, buf)
	}
	if resp.Entry != "Stuck" {
		t.Errorf("entry = %q, want Stuck", resp.Entry)
	}
	if resp.Type == "" {
		t.Errorf("response carries no extracted type")
	}
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(resp.Results))
	}
	res := resp.Results[0]
	if res.Holds {
		t.Fatalf("deadlock-free should FAIL for the stuck protocol")
	}
	if res.Witness == nil {
		t.Fatalf("FAIL carries no witness")
	}
	positions := 0
	for _, st := range append(res.Witness.Stem, res.Witness.Cycle...) {
		for _, p := range st.Pos {
			if !strings.HasPrefix(p, "request.go:") {
				t.Errorf("position %q does not point into request.go", p)
			}
			positions++
		}
	}
	if positions == 0 {
		t.Errorf("witness carries no source positions")
	}
	if !res.Witness.Replayed {
		t.Errorf("witness was not replay-validated")
	}
}

func TestGoSourceEntrySelectionAndErrors(t *testing.T) {
	ts := testServer(t, serverConfig{})
	prop := []map[string]any{{"kind": "deadlock-free"}}
	cases := []struct {
		name   string
		req    map[string]any
		status int
		kind   string
	}{
		{"go_source plus source", map[string]any{
			"go_source": stuckGoSource, "source": "end", "properties": prop,
		}, http.StatusBadRequest, "bad-request"},
		{"go_source without properties", map[string]any{
			"go_source": stuckGoSource,
		}, http.StatusBadRequest, "bad-request"},
		{"go_source with binds", map[string]any{
			"go_source": stuckGoSource, "properties": prop,
			"binds": []map[string]any{{"name": "x", "type": "Chan[Int]"}},
		}, http.StatusBadRequest, "bad-request"},
		{"unknown entry", map[string]any{
			"go_source": stuckGoSource, "entry": "NoSuch", "properties": prop,
		}, http.StatusUnprocessableEntity, "type"},
		{"no entries", map[string]any{
			"go_source": "package p\n", "properties": prop,
		}, http.StatusUnprocessableEntity, "type"},
		{"go parse error", map[string]any{
			"go_source": "package p\nfunc {", "properties": prop,
		}, http.StatusBadRequest, "parse"},
		{"standard-library import", map[string]any{
			"go_source": "package p\n\nimport \"fmt\"\n", "properties": prop,
		}, http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		code, buf := postVerify(t, ts, marshalReq(t, tc.req))
		if code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.status, buf)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(buf, &e); err != nil {
			t.Errorf("%s: error body is not JSON: %s", tc.name, buf)
			continue
		}
		if e.Kind != tc.kind {
			t.Errorf("%s: kind %q, want %q", tc.name, e.Kind, tc.kind)
		}
	}
	// Naming the entry explicitly works too.
	code, buf := postVerify(t, ts, marshalReq(t, map[string]any{
		"go_source": stuckGoSource, "entry": "Stuck", "properties": prop,
	}))
	if code != http.StatusOK {
		t.Fatalf("explicit entry: status %d: %s", code, buf)
	}
	var resp verifyResponse
	if err := json.Unmarshal(buf, &resp); err != nil || resp.Entry != "Stuck" {
		t.Fatalf("explicit entry: bad response (%v): %s", err, buf)
	}
}

// TestGoSourceRefusesOtherImports: a go_source file importing anything
// but the combinator packages is refused before extraction, with the
// import's path and position. Importing the module's root package used
// to type-check (and keep) the whole module for this one request.
func TestGoSourceRefusesOtherImports(t *testing.T) {
	ts := testServer(t, serverConfig{})
	src := `package p

import "effpi"

var _ = effpi.NewWorkspace

func F() {}
`
	code, buf := postVerify(t, ts, marshalReq(t, map[string]any{
		"go_source": src, "properties": []map[string]any{{"kind": "deadlock-free"}},
	}))
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, buf)
	}
	var e errorResponse
	if err := json.Unmarshal(buf, &e); err != nil {
		t.Fatalf("error body is not JSON: %s", buf)
	}
	if e.Kind != "bad-request" || !strings.Contains(e.Error, `"effpi"`) || !strings.Contains(e.Error, "request.go:3:8") {
		t.Errorf("got kind %q, error %q; want bad-request naming \"effpi\" at request.go:3:8", e.Kind, e.Error)
	}
}
