package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 for the
// operation's root). Times are nanoseconds since the tracer started.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The harness records
// them around its own calls into public functions; nothing inside the
// program under test knows it exists.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // the open-loop workload records from two goroutines
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp opens an operation and returns its identifier.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records one span and returns its ID, for use as a child's parent.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Op: op, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// root opens an operation and records its root span, which starts when the
// operation was due (open loop) or, with no due time, when it was issued;
// the wait between the two is the root's first child, "queue". It returns
// the operation and the root's ID for the remaining children.
func (t *tracer) root(name string, due, issued, end time.Time) (op, id int) {
	if due.IsZero() {
		due = issued
	}
	op = t.newOp()
	id = t.add(op, 0, name, due, end)
	t.add(op, id, "queue", due, issued)
	return op, id
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// roots returns the root spans named name, and the spans of each
// operation grouped by Op.
func (t *tracer) roots(name string) (roots []span, byOp map[int][]span) {
	byOp = make(map[int][]span)
	for _, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
		if s.Parent == 0 && s.Name == name {
			roots = append(roots, s)
		}
	}
	return roots, byOp
}

// meanChild returns the mean duration of the spans named child directly
// under the roots named root (0 when there are none).
func (t *tracer) meanChild(root, child string) time.Duration {
	roots, byOp := t.roots(root)
	var sum time.Duration
	n := 0
	for _, r := range roots {
		for _, s := range byOp[r.Op] {
			if s.Parent == r.ID && s.Name == child {
				sum += s.dur()
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// coverage is the share of the root spans' wall time their direct
// children account for, in percent.
func (t *tracer) coverage(root string) float64 {
	roots, byOp := t.roots(root)
	var wall, covered time.Duration
	for _, r := range roots {
		wall += r.dur()
		for _, s := range byOp[r.Op] {
			if s.Parent == r.ID {
				covered += s.dur()
			}
		}
	}
	if wall == 0 {
		return 0
	}
	return 100 * float64(covered) / float64(wall)
}

// selfTimes returns, for the operation whose root span named root has the
// median duration, each span's self time: its duration minus the part its
// children cover.
func (t *tracer) selfTimes(root string) (names []string, self []time.Duration) {
	roots, byOp := t.roots(root)
	if len(roots) == 0 {
		return nil, nil
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].dur() < roots[j].dur() })
	op := byOp[roots[len(roots)/2].Op]
	for _, s := range op {
		d := s.dur()
		for _, c := range op {
			if c.Parent == s.ID {
				d -= c.dur()
			}
		}
		names = append(names, s.Name)
		self = append(self, d)
	}
	return names, self
}

// printSelfTimes writes the self-time table of the median operation.
func (t *tracer) printSelfTimes(w io.Writer, root string) {
	names, self := t.selfTimes(root)
	if names == nil {
		return
	}
	fmt.Fprintf(w, "median %s, self time per span:\n", root)
	for i, n := range names {
		fmt.Fprintf(w, "  %-12s %10.3f ms\n", n, ms(self[i]))
	}
}
