package main

// Child-process hygiene. Every process the benchmark starts (effpid, and
// the setup-only copies of the benchmark itself) is started in its own
// process group, registered here, reaped by a dedicated goroutine, and
// killed — whole group — on every way out of the benchmark: normal
// return, error, panic, SIGINT/SIGTERM and the run deadline. Pdeathsig
// covers the one path no Go code runs on: the benchmark being killed
// with SIGKILL.

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"
)

func init() {
	// Pdeathsig fires when the *thread* that forked the child exits. The
	// main thread lives as long as the process, so children are always
	// started from it (see startChild).
	runtime.LockOSThread()
}

type child struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process is reaped
}

var (
	childMu  sync.Mutex
	children []*child
	exitOnce sync.Once
	// spawnReq serialises process starts onto the main thread.
	spawnReq = make(chan spawnCall)
)

type spawnCall struct {
	cmd   *exec.Cmd
	reply chan error
}

// startChild starts cmd in a fresh process group, with SIGKILL as its
// parent-death signal, and registers it for cleanup. The start itself
// runs on the main OS thread (serveSpawns), so the death signal is tied
// to the life of the whole benchmark, not to a worker thread.
func startChild(name string, cmd *exec.Cmd) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	reply := make(chan error)
	spawnReq <- spawnCall{cmd: cmd, reply: reply}
	if err := <-reply; err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, done: make(chan struct{})}
	childMu.Lock()
	children = append(children, c)
	childMu.Unlock()
	go func() {
		_ = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// serveSpawns runs fn on a new goroutine and serves process starts on
// the calling (main, locked) thread until fn returns.
func serveSpawns(fn func() int) int {
	result := make(chan int, 1)
	go func() { result <- fn() }()
	for {
		select {
		case call := <-spawnReq:
			call.reply <- call.cmd.Start()
		case code := <-result:
			return code
		}
	}
}

// stop kills the child's process group and waits until it is reaped.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		fmt.Fprintf(os.Stderr, "perfbench: %s (pid %d) not reaped after SIGKILL\n", c.name, c.cmd.Process.Pid)
	}
}

// stopAll kills and reaps every registered child.
func stopAll() {
	childMu.Lock()
	cs := children
	children = nil
	childMu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// exit stops every child, then exits with code. Safe to call from any
// goroutine; the first caller wins.
func exit(code int) {
	exitOnce.Do(func() {
		stopAll()
		os.Exit(code)
	})
	select {} // a concurrent caller is already exiting
}

// guard installs the signal and deadline exits. The deadline bounds the
// whole run, so a hung child or a stalled request cannot keep the
// benchmark (or effpid) alive past it.
func guard(deadline time.Duration) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping children\n", s)
		exit(130)
	}()
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded its %s deadline: stopping children\n", deadline)
		exit(124)
	})
}
