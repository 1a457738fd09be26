package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single list of metric names, units
// and regression bounds. The program reads it instead of carrying a
// second copy, so what is emitted and what is declared cannot drift.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the benchmark runs from the repository root or from bench/).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		buf, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(buf, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &spec, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", firstErr)
}

// metricsOf is the spec's list for an untraced or a traced run.
func (s *benchSpec) metricsOf(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// driverLine renders a run as the one JSON object the benchmark driver
// reads: exactly the spec's metrics for the run's kind, each with its
// unit. A metric the run did not produce is an error, not a zero.
func driverLine(spec *benchSpec, res *runResult) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range spec.metricsOf(res.Traced) {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("%s: the run produced no %q", res.Workload, m.Name)
		}
		metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	buf, err := json.Marshal(map[string]any{
		"correct": res.correct(), "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(buf), err
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the exclusive method), which is
// what the benchmark driver measures spread with.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// group collects each metric's values over the runs of one workload.
func group(runs []*runResult, workload string, traced bool) (vals map[string][]float64, picked []*runResult) {
	vals = map[string][]float64{}
	for _, r := range runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		picked = append(picked, r)
		for name, v := range r.Metrics {
			vals[name] = append(vals[name], v)
		}
	}
	return vals, picked
}

func workloadNames(runs []*runResult) []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

// printReport prints every metric of every workload by name with its
// unit — median and quartiles when the set was repeated — followed by the
// checks. It reports whether every check passed and every repeat of the
// seed did exactly the same work.
func printReport(w io.Writer, spec *benchSpec, file *resultFile) bool {
	ok := true
	for _, wl := range workloadNames(file.Runs) {
		for _, traced := range []bool{false, true} {
			vals, runs := group(file.Runs, wl, traced)
			if len(runs) == 0 {
				continue
			}
			kind := "end to end"
			if traced {
				kind = "per layer (traced run)"
			}
			fmt.Fprintf(w, "\n%s — %s, %d run(s)\n", wl, kind, len(runs))
			for _, m := range spec.metricsOf(traced) {
				v := vals[m.Name]
				if len(v) == 0 {
					fmt.Fprintf(w, "  %-34s MISSING\n", m.Name)
					ok = false
					continue
				}
				q1, q2, q3 := quartiles(v)
				line := fmt.Sprintf("  %-34s %14.6g %-8s", m.Name, q2, m.Unit)
				if len(v) > 1 {
					line += fmt.Sprintf(" [%.6g, %.6g] spread %.1f%%", q1, q3, 100*spread(v))
					if !traced && m.Name != "setup_s" && spread(v) > m.Bound {
						line += fmt.Sprintf("  > bound %.0f%%", 100*m.Bound)
					}
				}
				fmt.Fprintln(w, line)
			}
			last := runs[len(runs)-1]
			names := make([]string, 0, len(last.Timings))
			for name := range last.Timings {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				t := last.Timings[name]
				line := fmt.Sprintf("  timing %-27s median %.6g %s over %d", name, t.Median, t.Unit, t.N)
				if t.HighQ > 0 {
					line += fmt.Sprintf(", p%g %.6g %s", t.HighQ*100, t.High, t.Unit)
				}
				fmt.Fprintln(w, line)
			}
			attempted, failed := 0, 0
			for _, r := range runs {
				attempted += r.Attempted
				failed += r.Failed
				for _, c := range r.Checks {
					if !c.OK {
						fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
						ok = false
					}
				}
				if exact, bytes := sameWork(runs[0].Digest, r.Digest); !exact {
					fmt.Fprintf(w, "  DIGEST DIFFERS between runs of seed %d:\n    %s\n    %s\n", r.Seed, runs[0].Digest, r.Digest)
					ok = false
				} else if !bytes {
					fmt.Fprintf(w, "  note: byte counts differ between runs of seed %d (prefetch timing):\n    %s\n    %s\n", r.Seed, runs[0].Digest, r.Digest)
				}
			}
			fmt.Fprintf(w, "  failed_share %d/%d; digest %s\n", failed, attempted, runs[0].Digest)
		}
	}
	return ok
}

// compareFiles applies the spec's bounds to two result files, one row per
// (workload, end-to-end metric) with each side's median and quartiles. A
// pair is a regression when B's median is worse than A's by more than the
// bound and by more than either side's run-to-run spread; it is
// unresolved, not unchanged, when the spread exceeds the bound. The exit
// code is non-zero on a regression or a higher failed share.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	var a, b resultFile
	for path, dst := range map[string]*resultFile{pathA: &a, pathB: &b} {
		buf, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(buf, dst)
		}
		if err != nil {
			fatalf("%s: %v", path, err)
		}
	}
	fmt.Printf("A: %s  seed %d, commit %s, GOMAXPROCS %d, %s\n", pathA, a.Env.Seed, a.Env.Commit, a.Env.GoMaxProcs, a.Env.CPU)
	fmt.Printf("B: %s  seed %d, commit %s, GOMAXPROCS %d, %s\n", pathB, b.Env.Seed, b.Env.Commit, b.Env.GoMaxProcs, b.Env.CPU)
	fmt.Printf("%-14s %-22s %-36s %-36s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound", "verdict")
	exit := 0
	for _, wl := range workloadNames(a.Runs) {
		va, runsA := group(a.Runs, wl, false)
		vb, runsB := group(b.Runs, wl, false)
		if len(runsA) == 0 || len(runsB) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			if len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				fmt.Printf("%-14s %-22s missing on one side\n", wl, m.Name)
				exit = 1
				continue
			}
			a1, a2, a3 := quartiles(va[m.Name])
			b1, b2, b3 := quartiles(vb[m.Name])
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			noise := max(spread(va[m.Name]), spread(vb[m.Name]))
			verdict := "same"
			switch {
			case worse > m.Bound && worse > noise:
				verdict = "REGRESSION"
				exit = 1
			case noise > m.Bound:
				verdict = "unresolved"
			case -worse > m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-14s %-22s %-36s %-36s %+7.1f%% %5.0f%%  %s\n", wl, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g] %s", a2, a1, a3, m.Unit),
				fmt.Sprintf("%.5g [%.5g, %.5g] %s", b2, b1, b3, m.Unit),
				100*(b2-a2)/a2, 100*m.Bound, verdict)
		}
		shareA, shareB := failedShare(runsA), failedShare(runsB)
		verdict := "same"
		if shareB > shareA {
			verdict = "REGRESSION"
			exit = 1
		}
		fmt.Printf("%-14s %-22s %-36.6g %-36.6g %8s %6s  %s\n", wl, "failed_share", shareA, shareB, "", "0", verdict)
		if a.Env.Seed == b.Env.Seed {
			exact, bytes := sameWork(runsA[0].Digest, runsB[0].Digest)
			fmt.Printf("%-14s %-22s same losses and visits for the seed: %v; same byte counts: %v\n", wl, "digest", exact, bytes)
		}
		for _, r := range append(append([]*runResult(nil), runsA...), runsB...) {
			if !r.correct() {
				fmt.Printf("%-14s a run failed its checks: %s\n", wl, strings.TrimSpace(fmt.Sprint(r.Checks)))
				exit = 1
			}
		}
	}
	return exit
}

func failedShare(runs []*runResult) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(attempted))
}
