package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

// tree is a hand-built epoch: two batches under a root, the second with
// two overlapping children, plus a child that sticks out of its parent.
//
//	epoch   [0,100)
//	  load  [5,25)
//	  batch [30,60)   sample [30,40)  compute [40,58)
//	  batch [60,95)   gather [62,80)  prefetch [70,90)  late [90,110)
func tree() []Span {
	return []Span{
		{ID: 1, Name: "epoch", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "load", Start: 5 * ms, End: 25 * ms},
		{ID: 3, Parent: 1, Name: "batch", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 3, Name: "sample", Start: 30 * ms, End: 40 * ms},
		{ID: 5, Parent: 3, Name: "compute", Start: 40 * ms, End: 58 * ms},
		{ID: 6, Parent: 1, Name: "batch", Start: 60 * ms, End: 95 * ms},
		{ID: 7, Parent: 6, Name: "gather", Start: 62 * ms, End: 80 * ms},
		{ID: 8, Parent: 6, Name: "prefetch", Start: 70 * ms, End: 90 * ms},
		{ID: 9, Parent: 6, Name: "late", Start: 90 * ms, End: 110 * ms},
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	self, err := SelfTimes(tree())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"epoch":    100*ms - (20+30+35)*ms, // three direct children, disjoint
		"load":     20 * ms,
		"batch":    (30-28)*ms + (35-33)*ms, // [62,95) of the second batch is covered once
		"sample":   10 * ms,
		"compute":  18 * ms,
		"gather":   18 * ms,
		"prefetch": 20 * ms,
		"late":     20 * ms,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if len(self) != len(want) {
		t.Errorf("got %d names, want %d: %v", len(self), len(want), self)
	}
}

// With children nested inside their parents and not overlapping each
// other, the self times of a subtree sum to the root's duration: no time
// is lost or counted twice. The subtree's root is not a top-level span.
func TestSelfTimesSumToParent(t *testing.T) {
	spans := Subtree(tree(), 3) // batch [30,60) with sample and compute
	if len(spans) != 3 {
		t.Fatalf("subtree has %d spans, want 3", len(spans))
	}
	self, err := SelfTimes(spans) // batch is not top-level: Subtree must detach it

	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 30*ms {
		t.Errorf("parts sum to %v, want the parent's 30ms", sum)
	}
}

func TestSelfTimesRejectsBrokenTrees(t *testing.T) {
	orphan := append(tree(), Span{ID: 10, Parent: 42, Name: "lost", Start: 1 * ms, End: 2 * ms})
	if _, err := SelfTimes(orphan); err == nil || !strings.Contains(err.Error(), "orphan") {
		t.Errorf("orphan span: err = %v, want an orphan error", err)
	}
	open := append(tree(), Span{ID: 10, Parent: 1, Name: "open", Start: 1 * ms, End: -1})
	if _, err := SelfTimes(open); err == nil || !strings.Contains(err.Error(), "never ended") {
		t.Errorf("unended span: err = %v, want a never-ended error", err)
	}
}

func TestRecorderAndChromeTrace(t *testing.T) {
	var off *Recorder
	off.End(off.Start(0, "nothing"), "n", 1) // a nil recorder is a no-op
	if off.Len() != 0 || off.Spans() != nil {
		t.Fatal("nil recorder recorded something")
	}

	r := New("wl")
	root := r.Start(0, "phase")
	child := r.Start(root, "call")
	r.End(child, "bytes", int64(4096), "wall", 2*time.Second)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Counts["bytes"] != 4096 || spans[1].Counts["wall"] != 2 {
		t.Fatalf("recorded %+v", spans)
	}
	if _, err := SelfTimes(spans); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) != 2 || events[0]["ph"] != "X" || events[1]["cat"] != "wl" {
		t.Fatalf("events = %v", events)
	}
	if args := events[1]["args"].(map[string]any); args["parent"] != float64(root) || args["bytes"] != 4096.0 {
		t.Fatalf("args = %v", args)
	}
}
