package main

// Spans recorded by the benchmark around its calls into each layer's
// public entry points. Spans live in memory and are written out when the
// run ends; nothing is recorded inside the program.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Req     string `json:"req"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// do runs fn inside a span named name (child of parent, part of request
// req) and returns fn's wall time. With tracing off only the time is
// taken. fn receives the span's id, for child spans.
func (t *tracer) do(name, req string, parent int, fn func(id int)) time.Duration {
	if !t.on {
		start := time.Now()
		fn(0)
		return time.Since(start)
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req})
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].StartUS = start.Sub(t.t0).Microseconds()
	t.spans[id-1].EndUS = end.Sub(t.t0).Microseconds()
	t.mu.Unlock()
	return end.Sub(start)
}

// record adds a span whose interval was measured elsewhere (an HTTP
// request timed from its due time, or the server's own duration).
func (t *tracer) record(name, req string, parent int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		StartUS: start.Sub(t.t0).Microseconds(), EndUS: end.Sub(t.t0).Microseconds()})
	return id
}

// selfTimes sums, per span name, the span durations minus the part of
// each span's interval its children cover (ms), and counts the spans.
func (t *tracer) selfTimes() (map[string]float64, map[string]int) {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]float64{}
	count := map[string]int{}
	for _, s := range t.spans {
		covered := int64(0)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartUS < cs[j].StartUS })
		cur := s.StartUS
		for _, c := range cs {
			lo, hi := max(c.StartUS, cur), min(c.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.Name] += float64(s.EndUS-s.StartUS-covered) / 1000
		count[s.Name]++
	}
	return self, count
}

// printSelfTimes writes the per-layer self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	self, count := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# layer self time (span duration minus child spans), whole traced run\n")
	for _, n := range names {
		fmt.Fprintf(w, "#   %-28s self %10.3f ms over %6d spans\n", n, self[n], count[n])
	}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
