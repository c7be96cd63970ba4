package syntax

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"effpi/internal/term"
	"effpi/internal/types"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`let x = 42 in send(x, "hi\n", fun (u: Unit) => end) // trailing comment`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"let", "x", "=", "42", "in", "send", "(", "x", ",", "hi\n", ",", "fun", "(", "u", ":", "Unit", ")", "=>", "end", ")"}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("tokens = %q, want %q", texts, want)
	}
}

func TestLexPunctGreedy(t *testing.T) {
	toks, err := Lex("|| | == = => -> >= > ++ +")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks[:len(toks)-1] {
		texts = append(texts, tok.Text)
	}
	want := []string{"||", "|", "==", "=", "=>", "->", ">=", ">", "++", "+"}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("tokens = %q, want %q", texts, want)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `"bad \q escape"`, "§"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

// typeSpotChecks are type sources with their expected parses.
var typeSpotChecks = []struct {
	src  string
	want types.Type
}{
	{"Bool", types.Bool{}},
	{"Chan[Int]", types.ChanIO{Elem: types.Int{}}},
	{"IChan[OChan[Str]]", types.ChanI{Elem: types.ChanO{Elem: types.Str{}}}},
	{"Int | Bool", types.Union{L: types.Int{}, R: types.Bool{}}},
	{"(x: Chan[Str]) -> Out[x, Str, Nil]",
		types.Pi{Var: "x", Dom: types.ChanIO{Elem: types.Str{}},
			Cod: types.Out{Ch: types.Var{Name: "x"}, Payload: types.Str{}, Cont: types.Thunk(types.Nil{})}}},
	{"() -> Nil", types.Thunk(types.Nil{})},
	{"rec t. In[x, (v: Int) -> t]",
		types.Rec{Var: "t", Body: types.In{Ch: types.Var{Name: "x"},
			Cont: types.Pi{Var: "v", Dom: types.Int{}, Cod: types.RecVar{Name: "t"}}}}},
	{"Par[Nil, Nil, Nil]", types.ParOf(types.Nil{}, types.Nil{}, types.Nil{})},
}

func TestParseTypeSpotChecks(t *testing.T) {
	for _, c := range typeSpotChecks {
		got, err := ParseType(c.src)
		if err != nil {
			t.Errorf("ParseType(%q): %v", c.src, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseType(%q) = %#v, want %#v", c.src, got, c.want)
		}
	}
}

// termSpotChecks are term sources with their expected parses.
var termSpotChecks = []struct {
	src  string
	want term.Term
}{
	{"42", term.IntLit{Val: 42}},
	{"x y z", term.App{Fn: term.App{Fn: term.Var{Name: "x"}, Arg: term.Var{Name: "y"}}, Arg: term.Var{Name: "z"}}},
	{"!true", term.Not{T: term.BoolLit{Val: true}}},
	{"1 + 2 * 3", term.BinOp{Op: "+", L: term.IntLit{Val: 1},
		R: term.BinOp{Op: "*", L: term.IntLit{Val: 2}, R: term.IntLit{Val: 3}}}},
	{"chan[Int]()", term.NewChan{Elem: types.Int{}}},
	{"end || end", term.Par{L: term.End{}, R: term.End{}}},
	{`send(c, "m", fun (u: Unit) => end)`,
		term.Send{Ch: term.Var{Name: "c"}, Val: term.StrLit{Val: "m"},
			Cont: term.Lam{Var: "u", Ann: types.Unit{}, Body: term.End{}}}},
	{"let x: Int = 1 in x",
		term.Let{Var: "x", Ann: types.Int{}, Bound: term.IntLit{Val: 1}, Body: term.Var{Name: "x"}}},
	{"if x > 0 then x else 0 - x",
		term.If{Cond: term.BinOp{Op: ">", L: term.Var{Name: "x"}, R: term.IntLit{Val: 0}},
			Then: term.Var{Name: "x"},
			Else: term.BinOp{Op: "-", L: term.IntLit{Val: 0}, R: term.Var{Name: "x"}}}},
}

func TestParseTermSpotChecks(t *testing.T) {
	for _, c := range termSpotChecks {
		got, err := ParseTerm(c.src)
		if err != nil {
			t.Errorf("ParseTerm(%q): %v", c.src, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseTerm(%q) = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	badTerms := []string{
		"let x = in y", "fun x => x", "send(a, b)", "if x then y",
		"(", "x ||", "let = 3 in x", "recv(a, b, c)", "1 +",
	}
	for _, src := range badTerms {
		if _, err := ParseTerm(src); err == nil {
			t.Errorf("ParseTerm(%q) should fail", src)
		}
	}
	badTypes := []string{"Chan", "Out[Int]", "rec . t", "(x: ) -> Nil", "In[x]", "Par[Nil]"}
	for _, src := range badTypes {
		if _, err := ParseType(src); err == nil {
			t.Errorf("ParseType(%q) should fail", src)
		}
	}
}

func TestParseProgramWithAliases(t *testing.T) {
	src := `
// ponger from Ex. 2.2
type Reply = OChan[Str]
type Mail = Chan[Reply]
let ponger = fun (self: Mail) =>
  recv(self, fun (replyTo: Reply) =>
    send(replyTo, "Hi!", fun (u: Unit) => end))
in ponger
`
	got, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := got.(term.Let)
	if !ok {
		t.Fatalf("expected a let, got %T", got)
	}
	lam, ok := l.Bound.(term.Lam)
	if !ok {
		t.Fatalf("expected a fun, got %T", l.Bound)
	}
	want := types.ChanIO{Elem: types.ChanO{Elem: types.Str{}}}
	if !reflect.DeepEqual(lam.Ann, types.Type(want)) {
		t.Errorf("alias expansion failed: %#v", lam.Ann)
	}
}

// --- round-trip property tests ----------------------------------------------

var typeNames = []string{"x", "y", "z", "c"}

func genType(r *rand.Rand, depth int) types.Type {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return types.Bool{}
		case 1:
			return types.Int{}
		case 2:
			return types.Str{}
		case 3:
			return types.Unit{}
		case 4:
			return types.Nil{}
		default:
			return types.Var{Name: typeNames[r.Intn(len(typeNames))]}
		}
	}
	switch r.Intn(8) {
	case 0:
		return types.Union{L: genType(r, depth-1), R: genType(r, depth-1)}
	case 1:
		return types.Pi{Var: typeNames[r.Intn(len(typeNames))], Dom: genType(r, depth-1), Cod: genType(r, depth-1)}
	case 2:
		return types.ChanIO{Elem: genType(r, depth-1)}
	case 3:
		return types.ChanI{Elem: genType(r, depth-1)}
	case 4:
		return types.ChanO{Elem: genType(r, depth-1)}
	case 5:
		return types.Out{Ch: genType(r, depth-1), Payload: genType(r, depth-1), Cont: types.Thunk(genType(r, depth-1))}
	case 6:
		return types.In{Ch: genType(r, depth-1), Cont: types.Pi{Var: "v", Dom: genType(r, depth-1), Cod: genType(r, depth-1)}}
	default:
		return types.Par{L: genType(r, depth-1), R: genType(r, depth-1)}
	}
}

func TestTypeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		ty := genType(r, 4)
		src := PrintType(ty)
		back, err := ParseType(src)
		if err != nil {
			t.Fatalf("round-trip parse failed for %q: %v", src, err)
		}
		if !reflect.DeepEqual(back, ty) {
			t.Fatalf("round-trip mismatch:\n  orig %#v\n  src  %s\n  back %#v", ty, src, back)
		}
	}
}

var termNames = []string{"a", "b", "f", "g"}

func genTerm(r *rand.Rand, depth int) term.Term {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return term.BoolLit{Val: r.Intn(2) == 0}
		case 1:
			return term.IntLit{Val: int64(r.Intn(100))}
		case 2:
			return term.StrLit{Val: "s"}
		case 3:
			return term.UnitVal{}
		case 4:
			return term.End{}
		default:
			return term.Var{Name: termNames[r.Intn(len(termNames))]}
		}
	}
	switch r.Intn(10) {
	case 0:
		return term.Not{T: genTerm(r, depth-1)}
	case 1:
		return term.If{Cond: genTerm(r, depth-1), Then: genTerm(r, depth-1), Else: genTerm(r, depth-1)}
	case 2:
		return term.Let{Var: termNames[r.Intn(len(termNames))], Bound: genTerm(r, depth-1), Body: genTerm(r, depth-1)}
	case 3:
		return term.App{Fn: genTerm(r, depth-1), Arg: genTerm(r, depth-1)}
	case 4:
		return term.Lam{Var: termNames[r.Intn(len(termNames))], Ann: genType(r, 2), Body: genTerm(r, depth-1)}
	case 5:
		return term.Send{Ch: genTerm(r, depth-1), Val: genTerm(r, depth-1), Cont: genTerm(r, depth-1)}
	case 6:
		return term.Recv{Ch: genTerm(r, depth-1), Cont: genTerm(r, depth-1)}
	case 7:
		return term.Par{L: genTerm(r, depth-1), R: genTerm(r, depth-1)}
	case 8:
		return term.NewChan{Elem: genType(r, 2)}
	default:
		ops := []string{"+", "-", "*", ">", "<", ">=", "<=", "==", "++"}
		return term.BinOp{Op: ops[r.Intn(len(ops))], L: genTerm(r, depth-1), R: genTerm(r, depth-1)}
	}
}

func TestTermRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		tm := genTerm(r, 4)
		src := PrintTerm(tm)
		back, err := ParseTerm(src)
		if err != nil {
			t.Fatalf("round-trip parse failed for %q: %v", src, err)
		}
		if !reflect.DeepEqual(back, tm) {
			t.Fatalf("round-trip mismatch:\n  orig %#v\n  src  %s\n  back %#v", tm, src, back)
		}
	}
}

// TestLexNeverPanics fuzzes the lexer with random strings via
// testing/quick: it must either tokenise or return an error, never panic.
func TestLexNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = Lex(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseNeverPanics fuzzes the parser similarly.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = ParseTerm(s)
		_, _ = ParseType(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
