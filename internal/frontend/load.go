package frontend

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	gotypes "go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadedPackage is one parsed+typechecked target package.
type loadedPackage struct {
	fset  *token.FileSet
	dir   string
	path  string
	files []*ast.File
	info  *gotypes.Info
	funcs map[string]*ast.FuncDecl
}

// ExtractPackages extracts every entry function found under the given
// directory patterns (Go-style: a directory, or dir/... for a recursive
// walk), resolved relative to baseDir. Packages that do not import the
// effpi combinators are skipped without typechecking.
func ExtractPackages(baseDir string, patterns ...string) (*Result, error) {
	root, modPath, err := FindModuleRoot(baseDir)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(baseDir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newModImporter(root, modPath)
	res := &Result{}
	for _, dir := range dirs {
		lp, err := loadDir(fset, imp, dir, modPath, root)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		if lp == nil {
			continue
		}
		extractPackage(lp, modPath, res)
	}
	return res, nil
}

// ExtractSource extracts entries from a single in-memory Go file,
// typechecked against the module found at (or above) the current
// working directory. This is the effpid "go_source" entry point.
func ExtractSource(filename, src string) (*Result, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, modPath, err := FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	imp := newModImporter(root, modPath)
	lp, err := checkFiles(fset, imp, []*ast.File{f}, filename, modPath+"/internal/frontend/gosource")
	if err != nil {
		return nil, err
	}
	res := &Result{}
	extractPackage(lp, modPath, res)
	return res, nil
}

// expandPatterns resolves directory patterns to an ordered, de-duplicated
// directory list. testdata, vendor, and dot/underscore directories are
// skipped in recursive walks.
func expandPatterns(base string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			walkRoot := filepath.Join(base, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			if rest == "" {
				walkRoot = base
			}
			var sub []string
			err := filepath.WalkDir(walkRoot, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != walkRoot && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					sub = append(sub, p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			sort.Strings(sub)
			for _, d := range sub {
				add(d)
			}
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, filepath.FromSlash(pat))
		}
		st, err := os.Stat(dir)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", pat)
		}
		add(dir)
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	files, err := readGoDir(dir)
	return err == nil && len(files) > 0
}

// loadDir parses and typechecks one target directory; returns nil when
// the package cannot contain entries (no combinator imports).
func loadDir(fset *token.FileSet, imp *modImporter, dir, modPath, root string) (*loadedPackage, error) {
	files, err := parseGoDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 || !importsCombinators(files, modPath) {
		return nil, nil
	}
	pkgPath := importPathFor(dir, root, modPath)
	return checkFiles(fset, imp, files, dir, pkgPath)
}

// importsCombinators pre-scans imports so `verify ./...` does not
// typecheck packages that cannot possibly contain protocol entries.
func importsCombinators(files []*ast.File, modPath string) bool {
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == modPath+"/internal/runtime" || p == modPath+"/internal/actor" {
				return true
			}
		}
	}
	return false
}

func importPathFor(dir, root, modPath string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return modPath + "/x"
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return modPath + "/x"
	}
	if rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// checkFiles typechecks one target package with full gotypes.Info.
// Targets are never cached: their files live in the extraction's own
// FileSet, which every Diagnostic and SourceMap position is read from,
// and only their dependencies come from the process-wide cache.
func checkFiles(fset *token.FileSet, imp *modImporter, files []*ast.File, dir, pkgPath string) (*loadedPackage, error) {
	info := &gotypes.Info{
		Types: map[ast.Expr]gotypes.TypeAndValue{},
		Uses:  map[*ast.Ident]gotypes.Object{},
		Defs:  map[*ast.Ident]gotypes.Object{},
	}
	var errs []error
	conf := gotypes.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	_, err := conf.Check(pkgPath, fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("typecheck: %w", errs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	funcs := map[string]*ast.FuncDecl{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[fd.Name.Name] = fd
			}
		}
	}
	return &loadedPackage{fset: fset, dir: dir, path: pkgPath, files: files, info: info, funcs: funcs}, nil
}

// extractPackage runs the extractor over every entry in the package.
func extractPackage(lp *loadedPackage, modPath string, res *Result) {
	for _, f := range lp.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isEntry(fd, lp, modPath) {
				continue
			}
			if sys := extractEntry(lp, modPath, fd, &res.Diagnostics); sys != nil {
				res.Systems = append(res.Systems, sys)
			}
		}
	}
}

// isEntry reports whether fd is an extraction entry point:
//
//	func Name() runtime.Proc
//	func Name(e runtime.Engine) runtime.Proc
func isEntry(fd *ast.FuncDecl, lp *loadedPackage, modPath string) bool {
	if fd.Recv != nil || fd.Body == nil || fd.Type.TypeParams != nil {
		return false
	}
	results := fd.Type.Results
	if results == nil || len(results.List) != 1 || len(results.List[0].Names) > 0 {
		return false
	}
	if !isRuntimeNamed(lp.info.TypeOf(results.List[0].Type), modPath, "Proc") {
		return false
	}
	params := fd.Type.Params
	switch params.NumFields() {
	case 0:
		return true
	case 1:
		return isRuntimeNamed(lp.info.TypeOf(params.List[0].Type), modPath, "Engine")
	}
	return false
}

func isRuntimeNamed(gt gotypes.Type, modPath, name string) bool {
	named, ok := gotypes.Unalias(gt).(*gotypes.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == modPath+"/internal/runtime" && obj.Name() == name
}
