package effpi

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docNameAllowlist holds qualified names the documents may mention
// although no declaration of the repository matches them.
// Each names code that DESIGN.md's history of removed stages describes.
var docNameAllowlist = map[string]string{
	"LTS.States":              "the ParOf tree per state, before the exploration arena kept components",
	"lts.Options.Parallelism": "the retired parallel exploration engine's knob",
	"Semantics.Fork":          "the retired parallel exploration engine's per-worker semantics",
}

// repoDecls is what the repository's non-test Go files declare:
// top-level names by package (under the package clause's name and the
// directory's), and the members of every named type (methods, fields,
// interface methods) with the types it embeds, keyed both by the bare
// type name and by pkg.Type.
type repoDecls struct {
	pkgs     map[string]map[string]bool
	members  map[string]map[string]bool
	embedded map[string][]string
}

func parseRepoDecls(t *testing.T, root string) *repoDecls {
	t.Helper()
	d := &repoDecls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, embedded: map[string][]string{}}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgNames := []string{f.Name.Name, filepath.Base(filepath.Dir(path))}
		top := func(name string) {
			for _, p := range pkgNames {
				add(d.pkgs, p, name)
			}
		}
		member := func(typ, name string) {
			add(d.members, typ, name)
			for _, p := range pkgNames {
				add(d.members, p+"."+typ, name)
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					top(decl.Name.Name)
				} else {
					member(receiverType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							top(n.Name)
						}
					case *ast.TypeSpec:
						top(spec.Name.Name)
						d.typeMembers(spec.Name.Name, spec.Type, member)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *repoDecls) typeMembers(name string, typ ast.Expr, member func(typ, name string)) {
	member(name, "") // the type exists, even with no members
	var fields *ast.FieldList
	switch typ := typ.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			d.embedded[name] = append(d.embedded[name], receiverType(f.Type))
		}
		for _, n := range f.Names {
			member(name, n.Name)
		}
	}
}

// receiverType names the type of a receiver or embedded field: T, *T,
// T[P], pkg.T.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

func (d *repoDecls) hasMember(typ, name string, depth int) bool {
	if d.members[typ][name] {
		return true
	}
	for _, e := range d.embedded[typ] {
		if depth < 4 && (e == name || d.hasMember(e, name, depth+1)) {
			return true
		}
	}
	return false
}

// resolve reports whether a dotted name is a repository declaration, and
// whether it claims to be one at all: its first part must name a
// repository package or an exported repository type, and no part may be
// snake_case (a metric name such as mucalc.check_ms).
func (d *repoDecls) resolve(parts []string) (claims, ok bool) {
	if strings.Contains(strings.Join(parts, "."), "_") {
		return false, false
	}
	typ, rest := parts[0], parts[1:]
	if top, isPkg := d.pkgs[parts[0]]; isPkg {
		if !top[parts[1]] {
			return true, false
		}
		typ, rest = parts[0]+"."+parts[1], parts[2:]
	} else if _, isType := d.members[typ]; !isType || !ast.IsExported(typ) {
		return false, false
	}
	for _, member := range rest {
		if !d.hasMember(typ, member, 0) {
			return true, false
		}
		typ = member
	}
	return true, true
}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	qualified  = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+`)
	fileExt    = map[string]bool{"go": true, "md": true, "json": true, "yml": true, "yaml": true, "sh": true, "txt": true, "epi": true, "mod": true, "sum": true}
)

// TestDocNamesExist: every backticked qualified Go name in DESIGN.md and
// README.md (pkg.Name, Type.Method, pkg.Type.Field) names a declaration
// of the repository's non-test Go files, so a rename or a deletion that
// leaves the prose behind fails here. Names whose first part is neither a
// repository package nor a repository type (file names, the standard
// library) are not claims about this code and are skipped, and so are
// the benchmark's metric names (BENCHMARK.json), such as lts.states.
func TestDocNamesExist(t *testing.T) {
	d := parseRepoDecls(t, ".")
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if text, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(text, &bench); err != nil {
			t.Fatal(err)
		}
	}
	metric := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metric[m.Name] = true
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				name := qualified.FindString(m[1])
				parts := strings.Split(name, ".")
				if name == "" || fileExt[parts[len(parts)-1]] || metric[name] || docNameAllowlist[name] != "" {
					continue
				}
				if claims, ok := d.resolve(parts); claims && !ok {
					t.Errorf("%s:%d: `%s` names no declaration of the repository", doc, i+1, name)
				}
			}
		}
	}
}
