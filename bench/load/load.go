// Package load is the benchmark's open-loop request generator. Requests
// are due on a fixed-interval schedule fixed before the step starts, one
// goroutine per in-flight request, and every request is timed from its
// due time — not from when it was actually sent — so a stall in the
// system under test shows up in the latency of every request that had to
// wait behind it (a closed loop would simply have sent less). How late
// the generator itself ran is reported next to the latencies, so a slow
// generator cannot pass for a slow server.
package load

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Schedule is one step's fixed plan: request i is due Due[i] after the
// step starts and sends payload Pick[i] of the caller's request pool.
type Schedule struct {
	Due  []time.Duration
	Pick []int
}

// NewSchedule plans rate requests per second for dur at a fixed interval.
// Payload picks walk seeded shuffles of the pool, one after another, so a
// step sends every payload of the pool equally often (to within one) in an
// order that depends only on seed: one seed, one schedule, and two steps
// of one length carry the same mix of cheap and expensive requests.
func NewSchedule(seed int64, rate float64, dur time.Duration, poolSize int) Schedule {
	n := int(rate*dur.Seconds() + 0.5)
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Due: make([]time.Duration, n), Pick: make([]int, n)}
	interval := float64(time.Second) / rate
	var order []int
	for i := range s.Due {
		s.Due[i] = time.Duration(float64(i) * interval)
		if i%poolSize == 0 {
			order = rng.Perm(poolSize)
		}
		s.Pick[i] = order[i%poolSize]
	}
	return s
}

// Result is what one step measured. Latencies and lateness are in
// milliseconds, indexed like the schedule.
type Result struct {
	Sent   int
	Failed int
	// LatencyMS[i] is request i's completion time minus its due time.
	LatencyMS []float64
	// LatenessMS[i] is how long after its due time request i was sent.
	LatenessMS []float64
	// Backlog is the number of requests still in flight when the last
	// request had been sent: a queue that grows through the step.
	Backlog int
}

// Run plays the schedule against do, which sends request i (payload
// s.Pick[i]) and reports whether it failed. It returns once every request
// has completed.
func Run(s Schedule, do func(i int) error) Result {
	n := len(s.Due)
	res := Result{Sent: n, LatencyMS: make([]float64, n), LatenessMS: make([]float64, n)}
	var failed, done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		if wait := s.Due[i] - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		res.LatenessMS[i] = ms(time.Since(start) - s.Due[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := do(i); err != nil {
				failed.Add(1)
			}
			res.LatencyMS[i] = ms(time.Since(start) - s.Due[i])
			done.Add(1)
		}(i)
	}
	res.Backlog = n - int(done.Load())
	wg.Wait()
	res.Failed = int(failed.Load())
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Quantile returns the q-quantile (0..1) of vals by nearest rank on a
// sorted copy; 0 for no samples.
func Quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}
