package main

import (
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The test binary doubles as the set-up child, like the benchmark itself.
func TestMain(m *testing.M) {
	runSetupChild()
	os.Exit(m.Run())
}

func names(ms []metricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// Every name BENCHMARK.json declares is well-formed and used once, and
// the workloads it lists are the ones the program has, with the same
// reasons.
func TestSpecNames(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
}

// Every workload runs its five phases at tiny scale, untraced and
// traced; each run emits exactly the metrics BENCHMARK.json names for its
// kind, passes its checks, and renders as the driver's result line.
func TestTinyRunsEmitTheDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	procs := min(runtime.NumCPU(), 4)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name + "/untraced"
			if traced {
				name = wl.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(&runConfig{
					wl: wl.tiny(), seed: 1, seconds: 1, tiny: true, traced: traced,
					procs: procs, workDir: t.TempDir(), log: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				want := names(spec.metricsOf(traced))
				for _, d := range diff(want, got) {
					t.Errorf("declared in BENCHMARK.json but not emitted: %s", d)
				}
				for _, d := range diff(got, want) {
					t.Errorf("emitted but not declared in BENCHMARK.json: %s", d)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if traced && res.rec.Len() == 0 {
					t.Error("the traced run recorded no spans")
				}
				if _, err := driverLine(spec, res); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// diff returns the members of sorted a that sorted b lacks.
func diff(a, b []string) []string {
	var out []string
	for _, x := range a {
		if i := sort.SearchStrings(b, x); i == len(b) || b[i] != x {
			out = append(out, x)
		}
	}
	return out
}

func TestDriverArgs(t *testing.T) {
	got := driverArgs([]string{"--workload", "nc-disk-io", "--seed", "3", "--seconds", "24", "--trace", "1"})
	want := []string{"--workload", "nc-disk-io", "--seed", "3", "--seconds", "24", "-trace=1"}
	if len(got) != len(want) {
		t.Fatalf("driverArgs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("driverArgs = %v, want %v", got, want)
		}
	}
	if got := driverArgs([]string{"-trace", "-seed", "1"}); len(got) != 3 || got[0] != "-trace" {
		t.Fatalf("a bare -trace must stay a boolean: %v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]: the cut
	// points outside the data clamp to its ends.
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
