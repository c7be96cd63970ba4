package syntax

// Fuzz targets for the two parsers. Each checks that whatever parses
// survives a print → parse round trip and prints stably, so the printer
// never emits text the lexer or parser rejects. Run one with
//
//	go test -run '^$' -fuzz '^FuzzParseTerm$' -fuzztime 20s ./internal/syntax/
//
// Inputs that once failed live under testdata/fuzz and run with the
// plain test suite.

import (
	"testing"

	"effpi/internal/systems"
	"effpi/internal/types"
)

func FuzzParseTerm(f *testing.F) {
	for _, src := range representativeTerms {
		f.Add(src)
	}
	for _, c := range termSpotChecks {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tm, err := ParseTerm(src)
		if err != nil {
			return
		}
		printed := PrintTerm(tm)
		back, err := ParseTerm(printed)
		if err != nil {
			t.Fatalf("PrintTerm output %q of %q does not re-parse: %v", printed, src, err)
		}
		if again := PrintTerm(back); again != printed {
			t.Fatalf("print not stable: %q vs %q", printed, again)
		}
	})
}

func FuzzParseType(f *testing.F) {
	for _, c := range typeSpotChecks {
		f.Add(c.src)
	}
	for _, sys := range systems.Fig9Systems()[:4] {
		f.Add(PrintType(sys.Type))
	}
	f.Fuzz(func(t *testing.T, src string) {
		ty, err := ParseType(src)
		if err != nil {
			return
		}
		printed := PrintType(ty)
		back, err := ParseType(printed)
		if err != nil {
			t.Fatalf("PrintType output %q of %q does not re-parse: %v", printed, src, err)
		}
		if !types.Equal(back, ty) {
			t.Fatalf("round trip of %q changed the type: %s vs %s", src, printed, PrintType(back))
		}
		if again := PrintType(back); again != printed {
			t.Fatalf("print not stable: %q vs %q", printed, again)
		}
	})
}
