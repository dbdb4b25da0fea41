package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// an exported function of the program. Spans of one query or request
// share req; parent is the index of the enclosing span, or -1.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int
	req        int64
}

// tracer holds spans in memory until the traced run ends. A nil
// *tracer records nothing, so the untraced loop runs the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: req})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (the
// concurrent calls of a fan-out) are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		if len(kids[i]) > 0 {
			type iv struct{ lo, hi int64 }
			ivs := make([]iv, 0, len(kids[i]))
			for _, k := range kids[i] {
				lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
				if hi > lo {
					ivs = append(ivs, iv{lo, hi})
				}
			}
			sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
			var covered, curLo, curHi int64 = 0, -1, -1
			for _, v := range ivs {
				if v.lo > curHi {
					covered += curHi - curLo
					curLo, curHi = v.lo, v.hi
				} else if v.hi > curHi {
					curHi = v.hi
				}
			}
			covered += curHi - curLo
			d -= covered
		}
		self[i] = d
	}
	return self
}

// layerSelf sums self time per span name.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for i, s := range spans {
		out[s.name] += self[i]
	}
	return out
}

// writeSpans writes the spans as CSV (name, start and end in ns, parent
// index, request id, self time in ns) to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	self := selfTimes(spans)
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req,self_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.req, self[i])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
