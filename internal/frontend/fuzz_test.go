package frontend

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzExtractSource drives the Go-source front door (effpid's
// "go_source" field) with mutations of the example protocols and the
// diagnostic fixtures. Every input either fails to load with an error or
// extracts to a Result whose diagnostics each carry a code and a real
// position; it never panics. A crashing input lands in testdata/fuzz.
// Run it with
//
//	go test -run '^$' -fuzz '^FuzzExtractSource$' -fuzztime 20s ./internal/frontend/
func FuzzExtractSource(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "protocol.go"))
	if err != nil {
		f.Fatal(err)
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*", "*.go"))
	if err != nil {
		f.Fatal(err)
	}
	seeds := append(examples, fixtures...)
	if len(examples) == 0 || len(fixtures) == 0 {
		f.Fatalf("missing seeds: %d example protocols, %d fixtures", len(examples), len(fixtures))
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := ExtractSource("protocol.go", src)
		if err != nil {
			return
		}
		if res == nil {
			t.Fatal("nil Result without an error")
		}
		for _, d := range res.Diagnostics {
			if d.Code == "" || d.Pos.Line < 1 {
				t.Errorf("diagnostic without code or position: %+v", d)
			}
		}
	})
}
