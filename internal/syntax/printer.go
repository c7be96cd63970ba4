package syntax

import (
	"fmt"
	"strings"

	"effpi/internal/term"
	"effpi/internal/types"
)

// PrintType renders a type in the concrete syntax accepted by ParseType.
func PrintType(t types.Type) string {
	var b strings.Builder
	printType(t, &b)
	return b.String()
}

func printType(t types.Type, b *strings.Builder) {
	switch t := t.(type) {
	case types.Bool:
		b.WriteString("Bool")
	case types.Unit:
		b.WriteString("Unit")
	case types.Int:
		b.WriteString("Int")
	case types.Str:
		b.WriteString("Str")
	case types.Top:
		b.WriteString("Top")
	case types.Bottom:
		b.WriteString("Bot")
	case types.Proc:
		b.WriteString("Proc")
	case types.Nil:
		b.WriteString("Nil")
	case types.Var:
		b.WriteString(t.Name)
	case types.RecVar:
		b.WriteString(t.Name)
	case types.Union:
		b.WriteString("(")
		printType(t.L, b)
		b.WriteString(" | ")
		printType(t.R, b)
		b.WriteString(")")
	case types.Pi:
		if t.Var == "" {
			b.WriteString("(() -> ")
			printType(t.Cod, b)
			b.WriteString(")")
			return
		}
		fmt.Fprintf(b, "((%s: ", t.Var)
		printType(t.Dom, b)
		b.WriteString(") -> ")
		printType(t.Cod, b)
		b.WriteString(")")
	case types.Rec:
		fmt.Fprintf(b, "(rec %s. ", t.Var)
		printType(t.Body, b)
		b.WriteString(")")
	case types.ChanIO:
		b.WriteString("Chan[")
		printType(t.Elem, b)
		b.WriteString("]")
	case types.ChanI:
		b.WriteString("IChan[")
		printType(t.Elem, b)
		b.WriteString("]")
	case types.ChanO:
		b.WriteString("OChan[")
		printType(t.Elem, b)
		b.WriteString("]")
	case types.Out:
		b.WriteString("Out[")
		printType(t.Ch, b)
		b.WriteString(", ")
		printType(t.Payload, b)
		b.WriteString(", ")
		printType(t.Cont, b)
		b.WriteString("]")
	case types.In:
		b.WriteString("In[")
		printType(t.Ch, b)
		b.WriteString(", ")
		printType(t.Cont, b)
		b.WriteString("]")
	case types.Par:
		b.WriteString("Par[")
		printType(t.L, b)
		b.WriteString(", ")
		printType(t.R, b)
		b.WriteString("]")
	default:
		fmt.Fprintf(b, "?%T", t)
	}
}

// strEscaper writes exactly the escapes the lexer reads back; every
// other byte of a string literal is copied verbatim in both directions.
var strEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)

// PrintTerm renders a term in the concrete syntax accepted by ParseTerm.
func PrintTerm(t term.Term) string {
	var b strings.Builder
	printTerm(t, &b)
	return b.String()
}

func printTerm(t term.Term, b *strings.Builder) {
	switch t := t.(type) {
	case term.Var:
		b.WriteString(t.Name)
	case term.BoolLit:
		if t.Val {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case term.IntLit:
		fmt.Fprintf(b, "%d", t.Val)
	case term.StrLit:
		b.WriteByte('"')
		strEscaper.WriteString(b, t.Val)
		b.WriteByte('"')
	case term.UnitVal:
		b.WriteString("()")
	case term.Err:
		b.WriteString("err")
	case term.ChanVal:
		// Run-time syntax; not re-parseable by design.
		fmt.Fprintf(b, "#%s", t.Name)
	case term.Lam:
		fmt.Fprintf(b, "(fun (%s: ", t.Var)
		printType(t.Ann, b)
		b.WriteString(") => ")
		printTerm(t.Body, b)
		b.WriteString(")")
	case term.Not:
		b.WriteString("!")
		printAtom(t.T, b)
	case term.If:
		b.WriteString("(if ")
		printTerm(t.Cond, b)
		b.WriteString(" then ")
		printTerm(t.Then, b)
		b.WriteString(" else ")
		printTerm(t.Else, b)
		b.WriteString(")")
	case term.Let:
		b.WriteString("(let ")
		b.WriteString(t.Var)
		if t.Ann != nil {
			b.WriteString(": ")
			printType(t.Ann, b)
		}
		b.WriteString(" = ")
		printTerm(t.Bound, b)
		b.WriteString(" in ")
		printTerm(t.Body, b)
		b.WriteString(")")
	case term.App:
		// The function position must be atomic: `!f x` would otherwise
		// re-parse with the application under the negation.
		b.WriteString("(")
		printAtom(t.Fn, b)
		b.WriteString(" ")
		printAtom(t.Arg, b)
		b.WriteString(")")
	case term.NewChan:
		b.WriteString("chan[")
		printType(t.Elem, b)
		b.WriteString("]()")
	case term.End:
		b.WriteString("end")
	case term.Send:
		b.WriteString("send(")
		printTerm(t.Ch, b)
		b.WriteString(", ")
		printTerm(t.Val, b)
		b.WriteString(", ")
		printTerm(t.Cont, b)
		b.WriteString(")")
	case term.Recv:
		b.WriteString("recv(")
		printTerm(t.Ch, b)
		b.WriteString(", ")
		printTerm(t.Cont, b)
		b.WriteString(")")
	case term.Par:
		b.WriteString("(")
		printTerm(t.L, b)
		b.WriteString(" || ")
		printTerm(t.R, b)
		b.WriteString(")")
	case term.BinOp:
		b.WriteString("(")
		printTerm(t.L, b)
		fmt.Fprintf(b, " %s ", t.Op)
		printTerm(t.R, b)
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "?%T", t)
	}
}

func printAtom(t term.Term, b *strings.Builder) {
	switch t.(type) {
	case term.Var, term.BoolLit, term.IntLit, term.StrLit, term.UnitVal, term.End:
		printTerm(t, b)
	default:
		b.WriteString("(")
		printTerm(t, b)
		b.WriteString(")")
	}
}
