package frontend

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	gotypes "go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
	// buf is the buffer modPkg.unchanged reads files into, kept
	// between checks so a warm extraction allocates nothing for it.
	buf []byte
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

// modPkg is one cached module-internal package and every candidate
// file of its directory, as read when it was checked.
type modPkg struct {
	dir   string
	pkg   *gotypes.Package
	files []srcFile
}

// current reports whether g belongs to the module at root and every
// package in it still reads as the files it was checked from, with
// deps.mu held. Which files are accepted depends only on the candidate
// names, the bytes MatchFile read and the platform, so when all of
// those are unchanged the accepted files are too.
func (g *generation) current(root, modPath string) bool {
	if g == nil || g.root != root || g.modPath != modPath {
		return false
	}
	for _, p := range g.pkgs {
		if !p.unchanged() {
			return false
		}
	}
	return true
}

// unchanged reports whether p's directory holds the same candidate
// files, in the same order, with the same bytes wherever MatchFile read
// them, with deps.mu held. Each file is read up to one byte past its old
// length, so one that grew differs too.
func (p *modPkg) unchanged() bool {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return false
	}
	i := 0
	for _, ent := range ents {
		if !isCandidate(ent) {
			continue
		}
		if i == len(p.files) || filepath.Base(p.files[i].path) != ent.Name() {
			return false
		}
		f := p.files[i]
		i++
		if !f.read {
			continue
		}
		if deps.buf, err = readPrefix(f.path, len(f.src)+1, deps.buf); err != nil || !bytes.Equal(deps.buf, f.src) {
			return false
		}
	}
	return i == len(p.files)
}

// readPrefix reads at most n bytes of the file at path into buf's
// storage, growing it when it is short of n.
func readPrefix(path string, n int, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	buf = slices.Grow(buf[:0], n)[:n]
	k, err := io.ReadFull(f, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	return buf[:k], err
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
	cands, err := readGoDir(dir)
	if err != nil {
		return nil, err
	}
	files, err := parseFiles(m.gen.fset, cands)
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
	m.gen.pkgs[path] = &modPkg{dir: dir, pkg: pkg, files: cands}
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

// isCandidate reports whether ent may hold a file of the package in
// its directory: a .go file that is not a _test.go file.
func isCandidate(ent fs.DirEntry) bool {
	name := ent.Name()
	return !ent.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// srcFile is one candidate file of a package directory.
type srcFile struct {
	path string
	src  []byte
	// read is set when MatchFile read the file; one it rejects by name
	// alone (a _GOOS/_GOARCH suffix, a "." or "_" prefix) is never read,
	// and its bytes cannot change whether it is accepted.
	read bool
	// ok is set when `go build` compiles the file into the package on
	// this platform.
	ok bool
}

// readGoFile build-matches the candidate file name of dir, reading it
// when MatchFile needs its header. The rules are build.Default.MatchFile's
// (the _GOOS/_GOARCH name suffixes, //go:build lines, no "." or "_"
// prefix); MatchFile reads the file through the hook, so it is read
// once. A file whose header MatchFile rejects as malformed is accepted,
// so the parser reports the problem.
func readGoFile(dir, name string) (srcFile, error) {
	f := srcFile{path: filepath.Join(dir, name)}
	var readErr error
	ctxt := build.Default
	ctxt.OpenFile = func(path string) (io.ReadCloser, error) {
		f.src, readErr = os.ReadFile(path)
		f.read = true
		return io.NopCloser(bytes.NewReader(f.src)), readErr
	}
	ok, err := ctxt.MatchFile(dir, name)
	if readErr != nil {
		return srcFile{}, readErr
	}
	f.ok = ok || err != nil
	return f, nil
}

// readGoDir reads every candidate file of dir, in directory order.
// Parsing takes the accepted ones, and the dependency cache keeps them
// all to validate a cached package against.
func readGoDir(dir string) ([]srcFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []srcFile
	for _, ent := range ents {
		if !isCandidate(ent) {
			continue
		}
		f, err := readGoFile(dir, ent.Name())
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// parseFiles parses the accepted files of srcs.
func parseFiles(fset *token.FileSet, srcs []srcFile) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(srcs))
	for _, s := range srcs {
		if !s.ok {
			continue
		}
		f, err := parser.ParseFile(fset, s.path, s.src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// parseGoDir parses every accepted file of dir.
func parseGoDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	srcs, err := readGoDir(dir)
	if err != nil {
		return nil, err
	}
	return parseFiles(fset, srcs)
}
