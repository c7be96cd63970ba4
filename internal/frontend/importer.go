package frontend

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	gotypes "go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// FindModuleRoot walks up from dir to the nearest go.mod, returning the
// containing directory and the module path it declares.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			mp := parseModulePath(data)
			if mp == "" {
				return "", "", fmt.Errorf("frontend: %s/go.mod has no module directive", d)
			}
			return d, mp, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("frontend: no go.mod found in or above %s", dir)
		}
		d = parent
	}
}

func parseModulePath(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// deps is the process-wide cache of typechecked dependency packages.
// One mutex guards all of it: the source importer and the go/types
// checks of dependencies are not safe for concurrent use, and once the
// cache is warm a dependency load is a map hit. Target packages are
// never cached (see checkFiles). DESIGN.md §Front-door dependency cache
// has the keys, the generation snapshot and the bounds.
var deps struct {
	mu sync.Mutex
	// std imports standard-library packages from GOROOT source into its
	// own FileSet. stdPkgs memoises it by import path: the source
	// importer re-resolves the package directory even on a hit.
	std     gotypes.Importer
	stdPkgs map[string]*gotypes.Package
	// gen holds the module-internal packages of the module most recently
	// extracted from.
	gen *generation
}

// generation is one coherent set of module-internal dependency
// packages: at most one per import path of one module, typechecked
// into one FileSet against each other and the shared stdlib packages.
// A stale generation is replaced whole, never patched, so no
// extraction mixes packages checked against different versions of a
// file.
type generation struct {
	root, modPath string
	fset          *token.FileSet
	pkgs          map[string]*modPkg
}

// modPkg is one cached module-internal package and the SHA-256 of the
// files it was checked from.
type modPkg struct {
	dir string
	pkg *gotypes.Package
	sum [sha256.Size]byte
}

// current reports whether g belongs to the module at root and every
// package in it still hashes to the files on disk.
func (g *generation) current(root, modPath string) bool {
	if g == nil || g.root != root || g.modPath != modPath {
		return false
	}
	for _, p := range g.pkgs {
		files, err := readGoDir(p.dir)
		if err != nil || hashFiles(files) != p.sum {
			return false
		}
	}
	return true
}

// modImporter resolves the imports of one extraction's target
// packages. Paths inside the current module are parsed and typechecked
// recursively from repository source (the module has no external
// dependencies, so this is complete); everything else — the standard
// library — is delegated to the compiler source importer, which reads
// GOROOT source and needs no export data. Both kinds come from deps.
type modImporter struct {
	root, modPath string
	// gen is the generation this extraction reads and fills: taken (and
	// re-validated) at its first import, then kept even if a later
	// extraction replaces deps.gen.
	gen   *generation
	stack []string
}

func newModImporter(root, modPath string) *modImporter {
	return &modImporter{root: root, modPath: modPath}
}

// Import implements gotypes.Importer for a target package check.
func (m *modImporter) Import(path string) (*gotypes.Package, error) {
	deps.mu.Lock()
	defer deps.mu.Unlock()
	if m.gen == nil {
		if !deps.gen.current(m.root, m.modPath) {
			deps.gen = &generation{root: m.root, modPath: m.modPath, fset: fileSetFrom(genBase), pkgs: map[string]*modPkg{}}
		}
		m.gen = deps.gen
	}
	return m.load(path)
}

// Each kind of FileSet owns its own range of token.Pos: targets start
// at 1, generations at genBase, the stdlib at stdBase. A go/types
// message that cites a dependency's declaration while checking a target
// (say "cannot infer T (declared at …)") looks that position up in the
// target's FileSet. With disjoint ranges it finds no file there and
// prints "-", never a wrong file:line.
const (
	genBase = 1 << 29
	stdBase = 1 << 30
)

// fileSetFrom returns an empty FileSet whose first file starts at base.
func fileSetFrom(base int) *token.FileSet {
	fset := token.NewFileSet()
	fset.AddFile("", base, 0)
	return fset
}

// importerFunc adapts a function to gotypes.Importer.
type importerFunc func(path string) (*gotypes.Package, error)

func (f importerFunc) Import(path string) (*gotypes.Package, error) { return f(path) }

// load resolves path with deps.mu held.
func (m *modImporter) load(path string) (*gotypes.Package, error) {
	if path != m.modPath && !strings.HasPrefix(path, m.modPath+"/") {
		return importStd(path)
	}
	if p, ok := m.gen.pkgs[path]; ok {
		return p.pkg, nil
	}
	for _, p := range m.stack {
		if p == path {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, m.modPath), "/")
	dir := filepath.Join(m.root, filepath.FromSlash(rel))
	srcs, err := readGoDir(dir)
	if err != nil {
		return nil, err
	}
	files, err := parseFiles(m.gen.fset, srcs)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	// No gotypes.Info is collected for dependency packages.
	m.stack = append(m.stack, path)
	conf := gotypes.Config{Importer: importerFunc(m.load)}
	pkg, err := conf.Check(path, m.gen.fset, files, nil)
	m.stack = m.stack[:len(m.stack)-1]
	if err != nil {
		return nil, err
	}
	m.gen.pkgs[path] = &modPkg{dir: dir, pkg: pkg, sum: hashFiles(srcs)}
	return pkg, nil
}

// importStd returns the standard-library package at path, with deps.mu
// held. Failed imports are not cached.
func importStd(path string) (*gotypes.Package, error) {
	if pkg, ok := deps.stdPkgs[path]; ok {
		return pkg, nil
	}
	if deps.std == nil {
		deps.std = importer.ForCompiler(fileSetFrom(stdBase), "source", nil)
		deps.stdPkgs = map[string]*gotypes.Package{}
	}
	pkg, err := deps.std.Import(path)
	if err != nil {
		return nil, err
	}
	deps.stdPkgs[path] = pkg
	return pkg, nil
}

// readGoFile reports whether name in dir is a file `go build`
// compiles into the package on this platform, and returns its content
// when it is. The rules are build.Default.MatchFile's (the
// _GOOS/_GOARCH name suffixes, //go:build lines, no "." or "_" prefix)
// minus _test.go files; MatchFile reads the file through the hook, so
// it is read once. A file whose header MatchFile rejects as malformed
// is kept, so the parser reports the problem.
func readGoFile(dir, name string) (src []byte, ok bool, err error) {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return nil, false, nil
	}
	var readErr error
	ctxt := build.Default
	ctxt.OpenFile = func(path string) (io.ReadCloser, error) {
		src, readErr = os.ReadFile(path)
		return io.NopCloser(bytes.NewReader(src)), readErr
	}
	ok, err = ctxt.MatchFile(dir, name)
	if readErr != nil {
		return nil, false, readErr
	}
	return src, ok || err != nil, nil
}

// srcFile is one file readGoFile accepted.
type srcFile struct {
	path string
	src  []byte
}

// readGoDir reads every file of dir that readGoFile accepts, in
// directory order. Parsing, the hasGoFiles walk filter and the cache's
// content hash all go through it, so the hash covers exactly the files
// that are parsed.
func readGoDir(dir string) ([]srcFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []srcFile
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		src, ok, err := readGoFile(dir, ent.Name())
		if err != nil {
			return nil, err
		}
		if ok {
			files = append(files, srcFile{filepath.Join(dir, ent.Name()), src})
		}
	}
	return files, nil
}

// hashFiles is the SHA-256 over the names and contents of files.
func hashFiles(files []srcFile) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	for _, f := range files {
		for _, b := range [][]byte{[]byte(f.path), f.src} {
			binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
			h.Write(n[:])
			h.Write(b)
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func parseFiles(fset *token.FileSet, srcs []srcFile) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(srcs))
	for _, s := range srcs {
		f, err := parser.ParseFile(fset, s.path, s.src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// parseGoDir parses every file of dir that readGoDir accepts.
func parseGoDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	srcs, err := readGoDir(dir)
	if err != nil {
		return nil, err
	}
	return parseFiles(fset, srcs)
}
