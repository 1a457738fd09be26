package load

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := NewSchedule(7, 400, 500*time.Millisecond, 64)
	b := NewSchedule(7, 400, 500*time.Millisecond, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from one seed differ")
	}
	if len(a.Due) != 200 || a.Due[1]-a.Due[0] != 2500*time.Microsecond {
		t.Fatalf("400 rps for 0.5s: %d requests, interval %v", len(a.Due), a.Due[1]-a.Due[0])
	}
	c := NewSchedule(8, 400, 500*time.Millisecond, 64)
	if reflect.DeepEqual(a.Pick, c.Pick) {
		t.Fatal("a different seed picked the same payloads")
	}
	// Every payload of the pool is sent equally often: 200 picks over 64
	// payloads are three full shuffles and eight of a fourth.
	count := make([]int, 64)
	for _, p := range a.Pick {
		if p < 0 || p >= 64 {
			t.Fatalf("pick %d outside the pool", p)
		}
		count[p]++
	}
	for p, c := range count {
		if c < 3 || c > 4 {
			t.Errorf("payload %d picked %d times in 200, want 3 or 4", p, c)
		}
	}
}

// A server that handles one request at a time and stalls 50ms once: in
// an open loop the requests that came due during the stall waited behind
// it, and because each is timed from its due time their latencies show
// it, decaying as the queue drains.
func TestStallShowsInRequestsQueuedBehindIt(t *testing.T) {
	const stallAt = 20
	const stall = 50 * time.Millisecond
	var server sync.Mutex
	handle := func(i int) error {
		server.Lock()
		defer server.Unlock()
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	}
	// 200 rps: a request comes due every 5ms, so ~10 queue up in 50ms.
	res := Run(NewSchedule(1, 200, 400*time.Millisecond, 8), handle)
	if res.Sent != 80 || res.Failed != 0 {
		t.Fatalf("sent %d failed %d", res.Sent, res.Failed)
	}
	for i := 0; i < stallAt; i++ {
		if res.LatencyMS[i] > 20 {
			t.Errorf("request %d before the stall took %.1fms", i, res.LatencyMS[i])
		}
	}
	if got := res.LatencyMS[stallAt]; got < 50 {
		t.Errorf("the stalled request took %.1fms, want >= 50", got)
	}
	// Request stallAt+k came due 5k ms into the stall and waited out the
	// rest of it.
	for k, wantAtLeast := range map[int]float64{1: 40, 4: 25, 8: 5} {
		if got := res.LatencyMS[stallAt+k]; got < wantAtLeast {
			t.Errorf("request %d (due %dms into the stall) took %.1fms, want >= %.0f",
				stallAt+k, 5*k, got, wantAtLeast)
		}
	}
	if late := res.LatencyMS[stallAt+30]; late > 20 {
		t.Errorf("request %d, long after the stall, still took %.1fms", stallAt+30, late)
	}
	// The generator itself kept to the schedule: the stall was the
	// server's, and the report can tell the two apart.
	if p99 := Quantile(res.LatenessMS, 0.99); p99 > 10 {
		t.Errorf("generator lateness p99 %.1fms: the generator was blocked by the stall", p99)
	}
}

func TestBacklogAndFailures(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	res := Run(NewSchedule(1, 1000, 20*time.Millisecond, 4), func(i int) error {
		if i == 19 {
			once.Do(func() { close(release) })
		}
		<-release // nothing completes until the last request was sent
		if i%2 == 0 {
			return errFail
		}
		return nil
	})
	if res.Backlog < 19 {
		t.Errorf("backlog %d, want the whole step still in flight", res.Backlog)
	}
	if res.Failed != 10 {
		t.Errorf("failed %d, want 10", res.Failed)
	}
	if q := Quantile([]float64{3, 1, 2}, 0.5); q != 2 {
		t.Errorf("median = %v", q)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples")
	}
}

type failErr struct{}

func (failErr) Error() string { return "fail" }

var errFail error = failErr{}
