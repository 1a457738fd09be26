// Package span is the benchmark's own in-memory span recorder: the
// traced run wraps every call into a layer in a span (name, start, end,
// parent, workload), keeps them in memory, and writes them out as Chrome
// Trace Event JSON when the benchmark ends. SelfTimes turns the span
// tree into per-layer self time (a span's duration minus the part of it
// its children cover), which is what the per-layer metrics report.
//
// A nil *Recorder records nothing, so the same code path runs traced
// and untraced and the difference between the two is the tracing
// overhead.
package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// ID names a recorded span. The zero ID means "no span": it is what a
// nil Recorder returns and what a root span has as its parent.
type ID int

// Span is one timed call into a layer.
type Span struct {
	ID       ID
	Parent   ID // 0 for a root
	Name     string
	Workload string
	Start    time.Duration // since the recorder was created
	End      time.Duration
	// Counts are the values the wrapped call returned (bytes, batches,
	// hits, ...), recorded at the same boundary as the time.
	Counts map[string]float64
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Recorder collects spans. Safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []Span
}

// New returns a recorder whose spans are tagged with workload.
func New(workload string) *Recorder {
	return &Recorder{origin: time.Now(), workload: workload}
}

// Start opens a span under parent (0 for a root) and returns its ID.
func (r *Recorder) Start(parent ID, name string) ID {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := ID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Workload: r.workload, Start: now, End: -1})
	return id
}

// End closes span id, attaching counts (alternating name, value) to it.
func (r *Recorder) End(id ID, counts ...any) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	sp.End = now
	sp.addCounts(counts)
}

// Record adds a span after the fact, for a call whose boundaries the
// caller only learns once it has returned (an epoch inside a run loop,
// reported through a callback).
func (r *Recorder) Record(parent ID, name string, start, end time.Time, counts ...any) ID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := ID(len(r.spans) + 1)
	sp := Span{ID: id, Parent: parent, Name: name, Workload: r.workload,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)}
	sp.addCounts(counts)
	r.spans = append(r.spans, sp)
	return id
}

func (s *Span) addCounts(counts []any) {
	for i := 0; i+1 < len(counts); i += 2 {
		if s.Counts == nil {
			s.Counts = make(map[string]float64, len(counts)/2)
		}
		s.Counts[counts[i].(string)] = toFloat(counts[i+1])
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	case time.Duration:
		return x.Seconds()
	}
	panic(fmt.Sprintf("span: unsupported count type %T", v))
}

// Len is the number of spans recorded so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of everything recorded.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Subtree returns root and every span below it, in recording order, as a
// tree of its own: the returned root has no parent, so SelfTimes accepts
// the subtree of a span that is not itself top-level.
func Subtree(spans []Span, root ID) []Span {
	in := map[ID]bool{root: true}
	var out []Span
	for _, s := range spans { // parents are always recorded before children
		if s.ID == root {
			s.Parent = 0
			out = append(out, s)
		} else if in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns, per span name, the summed self time of the spans
// carrying it: each span's duration minus the part of its interval that
// its direct children cover (overlapping children are counted once).
// For a tree whose children lie inside their parents the self times sum
// to the roots' durations exactly. A span whose parent is not in spans,
// that was never ended, or that ends before it starts is an error: a
// broken tree would silently lose or double-count time.
func SelfTimes(spans []Span) (map[string]time.Duration, error) {
	byID := make(map[ID]*Span, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			return nil, fmt.Errorf("span: %q (id %d) was never ended", s.Name, s.ID)
		}
		byID[s.ID] = s
	}
	children := make(map[ID][]*Span)
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			return nil, fmt.Errorf("span: orphan %q (id %d): parent %d was not recorded", s.Name, s.ID, s.Parent)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]time.Duration)
	for i := range spans {
		s := &spans[i]
		self[s.Name] += s.Duration() - covered(s, children[s.ID])
	}
	return self, nil
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent *Span, kids []*Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	return total + curHi - curLo
}

// chromeEvent is one complete ("X") event of the Chrome Trace Event
// Format; timestamps are microseconds.
type chromeEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	TS   float64            `json:"ts"`
	Dur  float64            `json:"dur"`
	PID  int                `json:"pid"`
	TID  int                `json:"tid"`
	Args map[string]float64 `json:"args,omitempty"`
}

// WriteChromeTrace writes the spans of the given recorders as one Chrome
// Trace Event JSON array (chrome://tracing, Perfetto): one process per
// recorder, span and parent IDs in args.
func WriteChromeTrace(w io.Writer, recs ...*Recorder) error {
	var events []chromeEvent
	for pid, r := range recs {
		for _, s := range r.Spans() {
			args := map[string]float64{"id": float64(s.ID), "parent": float64(s.Parent)}
			for k, v := range s.Counts {
				args[k] = v
			}
			us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Workload, Ph: "X",
				TS: us(s.Start), Dur: us(s.Duration()), PID: pid + 1, TID: 1, Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(events)
}
