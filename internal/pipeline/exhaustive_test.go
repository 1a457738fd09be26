package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// serialRun is the executor's oracle: the fully inline nested loop Run
// had for Depth 0 and one worker until the executor was folded to one
// path — no goroutines, no channels. Run must reach the compute stage in
// this loop's order, and fail with this loop's error, at every Depth and
// Workers setting.
func serialRun[V, B any](ctx context.Context, ep Epoch[V, B]) error {
	for vi := 0; vi < ep.NumVisits; vi++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		v, err := ep.Load(vi)
		if err != nil {
			return err
		}
		err = func() error {
			defer ep.Release(v)
			if err := ep.Admit(vi, v); err != nil {
				return err
			}
			n := ep.NumBatches(v)
			for bi := 0; bi < n; bi++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				b, err := ep.Build(0, v, bi)
				if err != nil {
					return err
				}
				if err := ep.Compute(v, bi, b); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

type stage int

const (
	stLoad stage = iota
	stAdmit
	stBuild
	stCompute
)

// fault fires when stage st runs for (vi, bi): it returns err, or, when
// err is nil, cancels the epoch's context and lets the stage succeed.
type fault struct {
	st     stage
	vi, bi int
	err    error
}

// monitor is the executor's protocol written as counters, updated under
// one lock at every stage callback, with the states that must never be
// reached collected in unsafe.
type monitor struct {
	mu             sync.Mutex
	depth, workers int
	faults         []fault
	cancel         context.CancelFunc
	yield          int           // scrambles scheduling between repeats
	stall          time.Duration // how long Load and Build linger once a fault has fired
	fired          bool

	trace    []string // admits and computes, in the order they ran
	loading  bool
	loads    int         // Load calls started
	loaded   map[int]int // visit → successful loads
	admitted map[int]bool
	building map[int]int // visit → Builds running
	released map[int]int
	inFlight int  // batches built (or building) and not yet consumed
	returned bool // Run has returned
	unsafe   []string
}

func (m *monitor) bad(format string, args ...any) {
	m.unsafe = append(m.unsafe, fmt.Sprintf(format, args...))
}

// enter runs the stage's rule under the lock and reports the fault, if
// any, injected at (st, vi, bi).
func (m *monitor) enter(st stage, vi, bi int, rule func()) error {
	m.mu.Lock()
	if m.returned {
		m.bad("stage %d ran for (%d,%d) after Run returned", st, vi, bi)
	}
	rule()
	m.yield++
	yield, stall := m.yield%3 == 0, m.fired && (st == stLoad || st == stBuild)
	m.mu.Unlock()
	if yield {
		runtime.Gosched()
	}
	if stall {
		time.Sleep(m.stall)
	}
	for _, f := range m.faults {
		if f.st == st && f.vi == vi && f.bi == bi {
			m.mu.Lock()
			m.fired = true
			m.mu.Unlock()
			if f.err == nil {
				m.cancel()
				return nil
			}
			return f.err
		}
	}
	return nil
}

func (m *monitor) epoch(visits, batches int) Epoch[int, [2]int] {
	return Epoch[int, [2]int]{
		NumVisits: visits,
		Load: func(vi int) (int, error) {
			err := m.enter(stLoad, vi, 0, func() {
				if m.loading || vi != m.loads {
					m.bad("Load(%d) out of order or concurrent with another Load", vi)
				}
				// Load(vi) waits for the release of visit vi-depth-1.
				if old := vi - m.depth - 1; old >= 0 && m.released[old] == 0 {
					m.bad("Load(%d) started before visit %d was released (depth %d)", vi, old, m.depth)
				}
				m.loading = true
				m.loads++
			})
			m.mu.Lock()
			m.loading = false
			if err == nil {
				m.loaded[vi]++
			}
			if m.returned {
				m.bad("Load(%d) still running when Run returned", vi)
			}
			m.mu.Unlock()
			return vi, err
		},
		Admit: func(vi, v int) error {
			return m.enter(stAdmit, vi, 0, func() {
				m.admitted[v] = true
				m.trace = append(m.trace, fmt.Sprintf("admit %d", v))
			})
		},
		NumBatches: func(int) int { return batches },
		Build: func(w, v, bi int) ([2]int, error) {
			err := m.enter(stBuild, v, bi, func() {
				if !m.admitted[v] || m.released[v] > 0 {
					m.bad("Build(%d,%d) outside the visit's admit..release span", v, bi)
				}
				if w < 0 || w >= m.workers {
					m.bad("Build on worker %d of %d", w, m.workers)
				}
				m.building[v]++
				if m.inFlight++; m.inFlight > m.workers+m.depth {
					m.bad("%d batches built and unconsumed, bound %d", m.inFlight, m.workers+m.depth)
				}
			})
			m.mu.Lock()
			m.building[v]--
			if m.returned {
				m.bad("Build(%d,%d) still running when Run returned", v, bi)
			}
			m.mu.Unlock()
			return [2]int{v, bi}, err
		},
		Compute: func(v, bi int, b [2]int) error {
			return m.enter(stCompute, v, bi, func() {
				if b != [2]int{v, bi} {
					m.bad("Compute(%d,%d) was handed batch %v", v, bi, b)
				}
				m.inFlight--
				m.trace = append(m.trace, fmt.Sprintf("compute %d.%d", v, bi))
			})
		},
		Release: func(v int) {
			m.mu.Lock()
			defer m.mu.Unlock()
			if m.returned {
				m.bad("Release(%d) after Run returned", v)
			}
			if m.building[v] > 0 {
				m.bad("Release(%d) while %d of its batches were building", v, m.building[v])
			}
			m.released[v]++
		},
	}
}

// runCase runs one configuration through exec, under the monitor m,
// and returns exec's error.
func runCase(m *monitor, visits, batches int, exec func(context.Context, Epoch[int, [2]int]) error) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.cancel = cancel
	m.loaded, m.admitted, m.building, m.released = map[int]int{}, map[int]bool{}, map[int]int{}, map[int]int{}
	err := exec(ctx, m.epoch(visits, batches))
	m.mu.Lock()
	m.returned = true
	// Every loaded visit is released exactly once, and nothing else is.
	for v := 0; v < visits; v++ {
		if m.released[v] != m.loaded[v] || m.loaded[v] > 1 {
			m.bad("visit %d loaded %d times, released %d times", v, m.loaded[v], m.released[v])
		}
	}
	m.mu.Unlock()
	return err
}

func runUnder(depth, workers int) func(context.Context, Epoch[int, [2]int]) error {
	return func(ctx context.Context, ep Epoch[int, [2]int]) error {
		return Run(ctx, Config{Depth: depth, Workers: workers}, ep, nil)
	}
}

// Every configuration with at most 3 visits of at most 3 batches, depth
// 0..2 and 1..3 workers, fault-free and with an error or a cancellation
// injected at every (stage, index): Run computes in the serial loop's
// order, returns the serial loop's error, and never reaches an unsafe
// state. (A cancellation lands at a different moment of a concurrent
// run — a batch built ahead cancels earlier — so a run it stops may have
// computed only a prefix of the serial sequence.) Run under -race.
func TestEverySmallConfigurationMatchesSerialLoop(t *testing.T) {
	boom := errors.New("injected")
	for visits := 0; visits <= 3; visits++ {
		for batches := 0; batches <= 3; batches++ {
			faults := [][]fault{nil}
			for vi := 0; vi < visits; vi++ {
				for _, err := range []error{boom, nil} {
					faults = append(faults, []fault{{stLoad, vi, 0, err}}, []fault{{stAdmit, vi, 0, err}})
					for bi := 0; bi < batches; bi++ {
						faults = append(faults, []fault{{stBuild, vi, bi, err}}, []fault{{stCompute, vi, bi, err}})
					}
				}
			}
			for _, fs := range faults {
				checkAgainstSerial(t, visits, batches, fs)
			}
		}
	}
}

// With two injected errors the one the serial loop meets first wins,
// however early a stage running ahead hits the other.
func TestFirstErrorInPlanOrderWins(t *testing.T) {
	const visits, batches = 2, 2
	var all []fault
	for vi := 0; vi < visits; vi++ {
		all = append(all, fault{stLoad, vi, 0, nil}, fault{stAdmit, vi, 0, nil})
		for bi := 0; bi < batches; bi++ {
			all = append(all, fault{stBuild, vi, bi, nil}, fault{stCompute, vi, bi, nil})
		}
	}
	for i, a := range all {
		for j, b := range all {
			if i != j {
				a.err, b.err = errors.New("first injected"), errors.New("second injected")
				checkAgainstSerial(t, visits, batches, []fault{a, b})
			}
		}
	}
}

// No callback outlives Run: once a fault has fired, every Load and Build
// running ahead of it lingers long enough that a Run returning without
// waiting for its goroutines would leave one mid-call.
func TestNoCallbackOutlivesRun(t *testing.T) {
	const visits, batches, depth, workers = 3, 3, 2, 3
	for _, err := range []error{errors.New("injected"), nil} {
		for vi := 0; vi < visits; vi++ {
			for _, f := range []fault{{stLoad, vi, 0, err}, {stAdmit, vi, 0, err}, {stBuild, vi, 1, err}, {stCompute, vi, 1, err}} {
				m := &monitor{depth: depth, workers: workers, faults: []fault{f}, stall: time.Millisecond}
				runCase(m, visits, batches, runUnder(depth, workers))
				time.Sleep(2 * m.stall) // let a straggler, if any, finish and be seen
				m.mu.Lock()
				if len(m.unsafe) > 0 {
					t.Errorf("fault %v: unsafe states reached:\n %v", f, m.unsafe)
				}
				m.mu.Unlock()
			}
		}
	}
}

func checkAgainstSerial(t *testing.T, visits, batches int, faults []fault) {
	t.Helper()
	cancels := slices.ContainsFunc(faults, func(f fault) bool { return f.err == nil })
	oracle := &monitor{workers: 1, faults: faults}
	wantErr := runCase(oracle, visits, batches, serialRun[int, [2]int])
	for depth := 0; depth <= 2; depth++ {
		for workers := 1; workers <= 3; workers++ {
			for yield := 0; yield < 2; yield++ {
				m := &monitor{depth: depth, workers: workers, faults: faults, yield: yield}
				err := runCase(m, visits, batches, runUnder(depth, workers))
				name := fmt.Sprintf("visits=%d batches=%d depth=%d workers=%d faults=%v", visits, batches, depth, workers, faults)
				want, wantErr := oracle.trace, wantErr
				if cancels && err == context.Canceled {
					wantErr, want = err, want[:min(len(m.trace), len(want))]
				}
				if err != wantErr {
					t.Fatalf("%s: err = %v, serial loop returns %v", name, err, wantErr)
				}
				if !slices.Equal(m.trace, want) {
					t.Fatalf("%s: computed\n %v\nserial loop computes\n %v", name, m.trace, oracle.trace)
				}
				if len(m.unsafe) > 0 {
					t.Fatalf("%s: unsafe states reached:\n %v", name, m.unsafe)
				}
			}
		}
	}
	if len(oracle.unsafe) > 0 {
		t.Fatalf("oracle broke its own rules: %v", oracle.unsafe)
	}
}
