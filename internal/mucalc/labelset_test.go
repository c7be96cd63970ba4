package mucalc

import (
	"go/ast"
	"go/parser"
	"go/token"
	iofs "io/fs"
	"reflect"
	"strings"
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// TestLabelValuesComparable: LabelSet keys its map by label value, which
// panics at run time on a label holding a slice, map or func. Every
// types.Type and typelts.Label implementation — found by their marker
// methods typ() and label() in the packages' sources — must be listed
// here and be comparable; the interface fields of each hold only such
// implementations.
func TestLabelValuesComparable(t *testing.T) {
	impls := []any{
		types.Bool{}, types.Unit{}, types.Int{}, types.Str{}, types.Top{}, types.Bottom{},
		types.Union{}, types.Pi{}, types.Rec{}, types.RecVar{}, types.Var{},
		types.ChanIO{}, types.ChanI{}, types.ChanO{}, types.Proc{}, types.Nil{},
		types.Out{}, types.In{}, types.Par{},
		typelts.TauChoice{}, typelts.Output{}, typelts.Input{}, typelts.Comm{},
		typelts.Done{}, typelts.Stuck{},
	}
	listed := map[string]bool{}
	for _, v := range impls {
		rt := reflect.TypeOf(v)
		listed[rt.String()] = true
		if !rt.Comparable() {
			t.Errorf("%s is not comparable: a LabelSet lookup would panic", rt)
		}
	}
	for dir, marker := range map[string]string{"../types": "typ", "../typelts": "label"} {
		for _, name := range markedTypes(t, dir, marker) {
			if !listed[name] {
				t.Errorf("%s implements %s() but is not checked here", name, marker)
			}
		}
	}
}

// markedTypes lists, as package.Type, the receiver types of the methods
// named marker in the non-test Go files of dir.
func markedTypes(t *testing.T, dir, marker string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi iofs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for pkgName, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != marker {
					continue
				}
				if id, ok := fd.Recv.List[0].Type.(*ast.Ident); ok {
					names = append(names, pkgName+"."+id.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("no %s() methods found in %s", marker, dir)
	}
	return names
}
