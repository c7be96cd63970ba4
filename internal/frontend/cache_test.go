package frontend

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// resetDeps empties the process-wide dependency cache, so the next
// extraction pays the cold type-check again.
func resetDeps() {
	deps.mu.Lock()
	defer deps.mu.Unlock()
	deps.std, deps.stdPkgs, deps.gen = nil, nil, nil
}

// writeModule lays out a module at dir: a go.mod declaring modPath, a
// copy of this repository's internal/runtime (the combinators the
// extractor recognises), and files (slash paths relative to dir).
func writeModule(t *testing.T, dir, modPath string, files map[string]string) {
	t.Helper()
	srcs, err := readGoDir(filepath.Join("..", "runtime"))
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]string{"go.mod": "module " + modPath + "\n\ngo 1.24\n"}
	for _, s := range srcs {
		if s.ok {
			all["internal/runtime/"+filepath.Base(s.path)] = string(s.src)
		}
	}
	for name, src := range files {
		all[name] = src
	}
	for name, src := range all {
		writeFile(t, filepath.Join(dir, filepath.FromSlash(name)), src)
	}
}

func writeFile(t *testing.T, path, src string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ringSrc is an entry that creates n channels, one sender each, where
// n is the constant expression bound.
func ringSrc(modPath, bound string, imports ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "package ring\n\nimport (\n\trt %q\n", modPath+"/internal/runtime")
	for _, imp := range imports {
		fmt.Fprintf(&b, "\t%q\n", modPath+"/"+imp)
	}
	fmt.Fprintf(&b, `)

func Ring() rt.Proc {
	procs := []rt.Proc{}
	for i := 0; i < %s; i++ {
		c := rt.NewChan()
		procs = append(procs, rt.Send{Ch: c, Val: 1, Cont: nil})
	}
	return rt.Par{Procs: procs}
}
`, bound)
	return b.String()
}

// ringChannels extracts the ring package of the module at dir and
// returns the number of channels its one entry binds.
func ringChannels(t *testing.T, dir string) int {
	t.Helper()
	res, err := ExtractPackages(dir, "./ring")
	if err != nil {
		t.Fatalf("ExtractPackages(%s): %v", dir, err)
	}
	if len(res.Systems) != 1 || res.HasFatal() {
		t.Fatalf("want one system, got %d (diags %v)", len(res.Systems), res.Diagnostics)
	}
	return len(res.Systems[0].Env.Names())
}

func TestBuildConstraintsChooseFiles(t *testing.T) {
	other := "windows"
	if runtime.GOOS == other {
		other = "linux"
	}
	dir := t.TempDir()
	writeModule(t, dir, "m", map[string]string{
		"lib/f/f_" + runtime.GOOS + ".go": "package f\n\nconst N = 2\n",
		"lib/f/f_" + other + ".go":        "package f\n\nconst N = 3\n",
		"lib/f/ignored.go":                "//go:build ignore\n\npackage f\n\nconst N = 4\n",
		"lib/f/f_test.go":                 "package f\n\nconst N = 5\n",
		"ring/ring.go":                    ringSrc("m", "f.N", "lib/f"),
		"ring/ring_" + other + ".go":      "package ring\n\nconst N = 6\n",
		"only/x_" + other + ".go":         "package only\n\nimport _ \"m/internal/runtime\"\n\nfunc (\n",
	})
	if got := ringChannels(t, dir); got != 2 {
		t.Errorf("channels = %d, want 2 (from f_%s.go)", got, runtime.GOOS)
	}
	// A directory whose only file is for another platform holds no
	// package here, so a recursive walk skips it.
	if hasGoFiles(filepath.Join(dir, "only")) {
		t.Errorf("hasGoFiles(only) = true, want false")
	}
	if _, err := ExtractPackages(dir, "./..."); err != nil {
		t.Errorf("ExtractPackages(./...): %v", err)
	}
}

func TestCacheSeesDependencyEdit(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, "m", map[string]string{
		"lib/b/b.go":   "package b\n\nconst N = 2\n",
		"ring/ring.go": ringSrc("m", "b.N", "lib/b"),
	})
	if got := ringChannels(t, dir); got != 2 {
		t.Fatalf("channels = %d, want 2", got)
	}
	writeFile(t, filepath.Join(dir, "lib", "b", "b.go"), "package b\n\nconst N = 3\n")
	if got := ringChannels(t, dir); got != 3 {
		t.Errorf("after the edit: channels = %d, want 3", got)
	}
	// An edit that breaks the dependency surfaces as an error, and its
	// repair is seen too.
	writeFile(t, filepath.Join(dir, "lib", "b", "b.go"), "package b\n\nconst N = undefined\n")
	if _, err := ExtractPackages(dir, "./ring"); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("broken dependency: err = %v, want an undefined-name error", err)
	}
	writeFile(t, filepath.Join(dir, "lib", "b", "b.go"), "package b\n\nconst N = 4\n")
	if got := ringChannels(t, dir); got != 4 {
		t.Errorf("after the repair: channels = %d, want 4", got)
	}
}

// TestCacheSeesDirectoryChanges changes a cached dependency's directory
// between two extractions of one module. Every change but the edit to a
// _test.go file must drop the generation and be seen; that edit must
// keep it.
func TestCacheSeesDirectoryChanges(t *testing.T) {
	const remove = "" // an after entry that deletes the file
	cases := []struct {
		name          string
		before, after map[string]string
		want          int    // channels after the change
		wantErr       string // or the error it causes
		keepGen       bool
	}{{
		name: "file added",
		before: map[string]string{
			"lib/b/b.go":   "package b\n\nconst N = 2\n",
			"ring/ring.go": ringSrc("m", "b.N", "lib/b"),
		},
		after: map[string]string{
			"lib/b/c.go":   "package b\n\nconst M = 3\n",
			"ring/ring.go": ringSrc("m", "b.M", "lib/b"),
		},
		want: 3,
	}, {
		name: "file removed",
		before: map[string]string{
			"lib/b/b.go":   "package b\n\nconst N = M\n",
			"lib/b/m.go":   "package b\n\nconst M = 2\n",
			"ring/ring.go": ringSrc("m", "b.N", "lib/b"),
		},
		after:   map[string]string{"lib/b/m.go": remove},
		wantErr: "undefined: M",
	}, {
		name: "build tag dropped",
		before: map[string]string{
			"lib/b/b.go":   "package b\n\nconst N = 2\n",
			"lib/b/x.go":   "//go:build ignore\n\npackage b\n\nconst M = 7\n",
			"ring/ring.go": ringSrc("m", "b.N", "lib/b"),
		},
		after: map[string]string{
			"lib/b/x.go":   "package b\n\nconst M = 7\n",
			"ring/ring.go": ringSrc("m", "b.M", "lib/b"),
		},
		want: 7,
	}, {
		name: "one byte appended",
		before: map[string]string{
			"lib/b/b.go":   "package b\n\nconst N = 2",
			"ring/ring.go": ringSrc("m", "b.N", "lib/b"),
		},
		after: map[string]string{"lib/b/b.go": "package b\n\nconst N = 23"},
		want:  23,
	}, {
		name: "test file edited",
		before: map[string]string{
			"lib/b/b.go":      "package b\n\nconst N = 2\n",
			"lib/b/b_test.go": "package b\n\nconst T = 1\n",
			"ring/ring.go":    ringSrc("m", "b.N", "lib/b"),
		},
		after:   map[string]string{"lib/b/b_test.go": "package b\n\nconst T = 10\n"},
		want:    2,
		keepGen: true,
	}}
	gen := func() *generation {
		deps.mu.Lock()
		defer deps.mu.Unlock()
		return deps.gen
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeModule(t, dir, "m", c.before)
			ringChannels(t, dir)
			old := gen()
			for name, src := range c.after {
				path := filepath.Join(dir, filepath.FromSlash(name))
				if src == remove {
					if err := os.Remove(path); err != nil {
						t.Fatal(err)
					}
					continue
				}
				writeFile(t, path, src)
			}
			if c.wantErr != "" {
				if _, err := ExtractPackages(dir, "./ring"); err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Errorf("err = %v, want %q", err, c.wantErr)
				}
				return
			}
			if got := ringChannels(t, dir); got != c.want {
				t.Errorf("channels = %d, want %d", got, c.want)
			}
			if kept := gen() == old; kept != c.keepGen {
				t.Errorf("generation kept = %v, want %v", kept, c.keepGen)
			}
		})
	}
}

func TestCacheSeesEditTwoImportsDeep(t *testing.T) {
	dir := t.TempDir()
	// ring imports a and b; a imports b. If a were served from before
	// the edit and b from after it, b.Msg would be two distinct types
	// and the package-level assignment would not typecheck.
	writeModule(t, dir, "m", map[string]string{
		"lib/b/b.go":   "package b\n\nconst N = 2\n\ntype Msg struct{ X int }\n",
		"lib/a/a.go":   "package a\n\nimport \"m/lib/b\"\n\nconst N = b.N\n\nfunc M() b.Msg { return b.Msg{} }\n",
		"ring/ring.go": ringSrc("m", "a.N", "lib/a", "lib/b") + "\nvar _ b.Msg = a.M()\n",
	})
	if got := ringChannels(t, dir); got != 2 {
		t.Fatalf("channels = %d, want 2", got)
	}
	writeFile(t, filepath.Join(dir, "lib", "b", "b.go"), "package b\n\nconst N = 3\n\ntype Msg struct{ X, Y int }\n")
	if got := ringChannels(t, dir); got != 3 {
		t.Errorf("after the edit: channels = %d, want 3", got)
	}
}

func TestCacheAlternatesModuleRoots(t *testing.T) {
	var dirs [2]string
	for i := range dirs {
		dirs[i] = t.TempDir()
		writeModule(t, dirs[i], "m", map[string]string{
			"lib/b/b.go":   fmt.Sprintf("package b\n\nconst N = %d\n", i+2),
			"ring/ring.go": ringSrc("m", "b.N", "lib/b"),
		})
	}
	for round := 0; round < 3; round++ {
		for i, dir := range dirs {
			if got := ringChannels(t, dir); got != i+2 {
				t.Errorf("round %d, root %d: channels = %d, want %d", round, i, got, i+2)
			}
		}
	}
}

func TestDependencyPositionNeverResolvesInTarget(t *testing.T) {
	// The target is long enough that actor.go's offsets fall inside it.
	src := "package p\n" + strings.Repeat("// padding\n", 200) +
		"import \"effpi/internal/actor\"\n\nvar _, _ = actor.NewMailbox(nil)\n"
	for _, cold := range []bool{true, false} {
		if cold {
			resetDeps()
		}
		_, err := ExtractSource("bad.go", src)
		if err == nil || !strings.Contains(err.Error(), "cannot infer T") {
			t.Fatalf("cold=%v: err = %v, want an inference failure", cold, err)
		}
		if _, cited, _ := strings.Cut(err.Error(), "declared at"); strings.Contains(cited, "bad.go") {
			t.Errorf("cold=%v: a dependency position resolved inside the target: %v", cold, err)
		}
	}
}

// dumpResult renders everything an extraction reports: each system's
// name, package, position, type, env and source map, then every
// diagnostic.
func dumpResult(res *Result) string {
	var b strings.Builder
	for _, s := range res.Systems {
		fmt.Fprintf(&b, "%s %s %s\n  %v\n  %v\n", s.Name, s.Pkg, s.Pos, s.Type, s.Env)
		var keys []string
		for k, ps := range s.Map.pos {
			keys = append(keys, fmt.Sprintf("  %s/%d %v", k.name, k.dir, ps))
		}
		sort.Strings(keys)
		b.WriteString(strings.Join(keys, "\n"))
		b.WriteString("\n")
	}
	for _, d := range res.Diagnostics {
		fmt.Fprintf(&b, "%s fatal=%v\n", d, d.Fatal)
	}
	return b.String()
}

// extractAll extracts each example package and one example file as
// in-memory source, returning the dumps in a fixed order.
func extractAll(src string) ([]string, error) {
	var out []string
	for _, pkg := range []string{"mobilecode", "payment", "philosophers", "quickstart"} {
		res, err := ExtractPackages("../..", "examples/"+pkg)
		if err != nil {
			return nil, err
		}
		out = append(out, dumpResult(res))
	}
	res, err := ExtractSource("protocol.go", src)
	if err != nil {
		return nil, err
	}
	return append(out, dumpResult(res)), nil
}

func TestConcurrentExtractionsMatchSerial(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "mobilecode", "protocol.go"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := extractAll(string(src))
	if err != nil {
		t.Fatal(err)
	}
	resetDeps()
	const workers = 8
	got := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = extractAll(string(src))
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Errorf("worker %d: %v", w, errs[w])
			continue
		}
		for i := range want {
			if got[w][i] != want[i] {
				t.Errorf("worker %d, extraction %d differs from the serial run:\n got  %s\n want %s", w, i, got[w][i], want[i])
			}
		}
	}
}

func TestWarmExtractionAllocatesLess(t *testing.T) {
	allocs := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ExtractPackages("../..", "examples/payment"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	resetDeps()
	cold := allocs()
	warm := allocs()
	t.Logf("examples/payment: cold %d B, warm %d B", cold, warm)
	if warm*10 > cold {
		t.Errorf("warm extraction allocated %d B, want at most a tenth of the cold %d B", warm, cold)
	}
}

// TestWarmAllocationIgnoresDependencySize pads a dependency with 256 KB
// of comment: a warm extraction compares the padded file's bytes into a
// buffer the cache keeps, so it allocates almost nothing more.
func TestWarmAllocationIgnoresDependencySize(t *testing.T) {
	const pad = 256 << 10
	warm := func(padding string) uint64 {
		dir := t.TempDir()
		writeModule(t, dir, "m", map[string]string{
			"lib/b/b.go":   "package b\n\nconst N = 2\n",
			"lib/b/pad.go": "package b\n" + padding,
			"ring/ring.go": ringSrc("m", "b.N", "lib/b"),
		})
		ringChannels(t, dir) // cold
		ringChannels(t, dir) // warm, sizing the comparison buffer
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ringChannels(t, dir)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	line := "// " + strings.Repeat("x", 60) + "\n"
	plain := warm("")
	padded := warm(strings.Repeat(line, pad/len(line)))
	t.Logf("warm extraction: %d B, %d B with the padding", plain, padded)
	if padded > plain+pad/4 {
		t.Errorf("padding a dependency by %d B raised warm allocation from %d to %d B, want less than a quarter of the padding more", pad, plain, padded)
	}
}

func BenchmarkExtractPackagesCold(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		resetDeps()
		if _, err := ExtractPackages("../..", "examples/payment"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractPackagesWarm(b *testing.B) {
	if _, err := ExtractPackages("../..", "examples/payment"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ExtractPackages("../..", "examples/payment"); err != nil {
			b.Fatal(err)
		}
	}
}
