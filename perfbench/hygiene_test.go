package main

// Child-process hygiene: no effpid started by a service-warm run may
// outlive the benchmark, whichever way the run ends. Each case builds
// the benchmark and effpid, ends a run partway through, and then checks
// every effpid pid the run announced on stderr.

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binaries builds perfbench and effpid once per test binary.
func binaries(t *testing.T) (bench, effpid string) {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "perfbench-test")
		if buildErr != nil {
			return
		}
		for _, b := range []struct{ dir, pkg, out string }{
			{".", ".", "perfbench"},
			{"..", "./cmd/effpid", "effpid"},
		} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, b.out), b.pkg)
			cmd.Dir = b.dir
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = &buildError{string(out), err}
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("build: %v", buildErr)
	}
	return filepath.Join(binDir, "perfbench"), filepath.Join(binDir, "effpid")
}

type buildError struct {
	out string
	err error
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + e.out }

var pidLine = regexp.MustCompile(`effpid pid (\d+)`)

// alive reports whether pid names a live (non-zombie) process.
func alive(pid int) bool {
	if syscall.Kill(pid, 0) != nil {
		return false
	}
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return false
	}
	// The state follows the parenthesised command name.
	i := bytes.LastIndexByte(stat, ')')
	return i < 0 || i+2 >= len(stat) || stat[i+2] != 'Z'
}

// start runs the benchmark on service-warm from the repository root
// and returns it with a channel of the effpid pids it announces and a
// channel closed once effpid is ready.
func start(t *testing.T, args ...string) (*exec.Cmd, chan int, chan struct{}, *bytes.Buffer) {
	t.Helper()
	bench, effpid := binaries(t)
	cmd := exec.Command(bench, append([]string{"--workload", "service-warm", "--seed", "1",
		"--effpid", effpid, "--out", t.TempDir()}, args...)...)
	cmd.Dir = ".."
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pids := make(chan int, 16)
	ready := make(chan struct{})
	go func() {
		defer close(pids)
		sc := bufio.NewScanner(stderr)
		readyOnce := sync.Once{}
		for sc.Scan() {
			if m := pidLine.FindStringSubmatch(sc.Text()); m != nil {
				pid, _ := strconv.Atoi(m[1])
				pids <- pid
			}
			if strings.Contains(sc.Text(), "effpid ready") {
				readyOnce.Do(func() { close(ready) })
			}
		}
	}()
	return cmd, pids, ready, &stdout
}

// finish waits for the benchmark, checks its exit code, and asserts
// that no announced effpid is alive afterwards.
func finish(t *testing.T, cmd *exec.Cmd, pids chan int, stdout *bytes.Buffer, wantCode int) {
	t.Helper()
	err := cmd.Wait()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			code = -int(ws.Signal())
		}
	} else if err != nil {
		t.Fatal(err)
	}
	if code != wantCode {
		t.Errorf("exit code %d, want %d", code, wantCode)
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("an interrupted run printed a result line:\n%s", stdout.String())
	}
	var seen []int
	for pid := range pids {
		seen = append(seen, pid)
	}
	if len(seen) == 0 {
		t.Fatal("the run announced no effpid")
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, pid := range seen {
		for alive(pid) && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if alive(pid) {
			t.Errorf("effpid %d outlived the benchmark", pid)
			syscall.Kill(pid, syscall.SIGKILL)
		}
	}
}

func TestNoEffpidSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	signal := func(sig syscall.Signal) func(*exec.Cmd, chan struct{}) {
		return func(cmd *exec.Cmd, ready chan struct{}) {
			<-ready
			time.Sleep(500 * time.Millisecond) // into the run proper
			cmd.Process.Signal(sig)
		}
	}
	cases := []struct {
		name     string
		args     []string
		act      func(*exec.Cmd, chan struct{})
		wantCode int
	}{
		{"error after setup", []string{"--fault", "fail"}, nil, 2},
		{"panic after setup", []string{"--fault", "panic"}, nil, 2},
		{"SIGINT while measuring", []string{"--seconds", "60"}, signal(syscall.SIGINT), 130},
		{"SIGTERM while measuring", []string{"--seconds", "60"}, signal(syscall.SIGTERM), 130},
		{"run deadline", []string{"--seconds", "60", "--deadline", "4s"}, nil, 124},
		{"benchmark killed", []string{"--seconds", "60"}, signal(syscall.SIGKILL), -int(syscall.SIGKILL)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd, pids, ready, stdout := start(t, c.args...)
			if c.act != nil {
				go c.act(cmd, ready)
			}
			finish(t, cmd, pids, stdout, c.wantCode)
		})
	}
}
