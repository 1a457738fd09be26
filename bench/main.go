// Command bench is the repository's benchmark: one command that takes a
// generated raw edge list through prep, train, eval, serve-load and serve
// and reports named end-to-end metrics (untraced) and per-layer metrics
// (traced) for four workloads that stress different layers. See
// README.md for the metrics, the workloads and how to compare two runs;
// BENCHMARK.json at the repository root names every metric, its unit and
// the bound by which it may worsen.
//
//	bash bench/run.sh -seed 1                     # four workloads, end-to-end metrics
//	bash bench/run.sh -seed 1 -trace              # plus the traced run: per-layer metrics, trace file
//	bash bench/run.sh -seed 1 -repeat 5 -out a.json
//	bash bench/run.sh -compare a.json b.json
//
// (run.sh builds this package into .bench_build and runs it; go run -C
// bench . does the same.) The benchmark driver calls it for one workload at
// a time:
//
//	bash bench/run.sh --workload lp-comet-disk --seed 3 --seconds 24 --trace 0
//
// and reads the last line of standard output, one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"repro/bench/span"
)

const (
	// defaultSeconds is the measuring budget the fixed work is sized for.
	defaultSeconds = 24
	// buildDir, under the working directory, holds everything a run
	// leaves behind: scratch data (removed on exit) and the trace files.
	buildDir = ".bench_build"
)

// env records where a result was measured.
type env struct {
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go"`
	Commit     string `json:"git_commit"`
	Tiny       bool   `json:"tiny,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  env          `json:"env"`
	Runs []*runResult `json:"runs"`
}

func main() {
	runSetupChild()

	var (
		workloadName = flag.String("workload", "", "run only this workload and print the driver's one-line JSON result")
		seed         = flag.Int64("seed", 1, "workload seed: one seed, one set of inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "measuring budget of one run; serving steps and probes stretch with it")
		trace        = flag.Bool("trace", false, "traced run: per-layer metrics, layer replay, Chrome trace")
		tiny         = flag.Bool("tiny", false, "smoke-test scale (numbers are meaningless)")
		repeat       = flag.Int("repeat", 1, "run the set this many times and report medians and quartiles")
		out          = flag.String("out", "", "write every run as JSON to this file")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments: A.json B.json")
	)
	flag.CommandLine.Parse(driverArgs(os.Args[1:]))

	spec, err := loadSpec()
	if err != nil {
		fatalf("%v", err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files: A.json B.json")
		}
		os.Exit(compareFiles(spec, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 || *repeat <= 0 {
		fatalf("-seconds and -repeat must be positive")
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	e := env{Seed: *seed, NProc: runtime.NumCPU(), GoMaxProcs: procs, CPU: cpuModel(),
		Go: runtime.Version(), Commit: gitCommit(), Tiny: *tiny}

	root, err := filepath.Abs(filepath.Join(buildDir, "work", fmt.Sprintf("%d", os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	cleanup := func() { os.RemoveAll(root) }
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	one := func(wl workload, traced bool) *runResult {
		if *tiny {
			wl = wl.tiny()
		}
		res, err := runWorkload(&runConfig{
			wl: wl, seed: *seed, seconds: *seconds, tiny: *tiny, traced: traced,
			procs: procs, workDir: filepath.Join(root, wl.Name), log: os.Stderr,
		})
		if err != nil {
			cleanup()
			fatalf("%v", err)
		}
		return res
	}

	if *workloadName != "" {
		wl, ok := findWorkload(*workloadName)
		if !ok {
			fatalf("unknown workload %q", *workloadName)
		}
		res := one(wl, *trace)
		if *trace {
			writeTrace(filepath.Join(buildDir, "trace-"+wl.Name+".json"), res.rec)
		}
		printChecks(res)
		line, err := driverLine(spec, res)
		if err != nil {
			cleanup()
			fatalf("%v", err)
		}
		fmt.Println(line)
		return
	}

	file := resultFile{Env: e}
	fmt.Fprintf(os.Stderr, "seed %d, %d of %d CPUs (%s), %s, commit %s\n", e.Seed, e.GoMaxProcs, e.NProc, e.CPU, e.Go, e.Commit)
	var recs []*span.Recorder
	for rep := 0; rep < *repeat; rep++ {
		for _, wl := range workloads {
			fmt.Fprintf(os.Stderr, "%s (run %d of %d)\n", wl.Name, rep+1, *repeat)
			res := one(wl, false)
			file.Runs = append(file.Runs, res)
			printChecks(res)
			if *trace && rep == 0 {
				fmt.Fprintf(os.Stderr, "%s (traced)\n", wl.Name)
				tr := one(wl, true)
				// The untraced run's median epoch is the reference the
				// traced run's is held against.
				file.Runs = append(file.Runs, tr)
				recs = append(recs, tr.rec)
				printChecks(tr)
			}
		}
	}
	ok := printReport(os.Stdout, spec, &file)
	if *trace {
		writeTrace(filepath.Join(buildDir, "trace.json"), recs...)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(&file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fatalf("%v", err)
		}
	}
	if !ok {
		cleanup()
		os.Exit(1)
	}
}

// driverArgs lets the driver's "--trace 0|1" and the human "-trace" share
// one boolean flag: a 0 or 1 that follows -trace is folded into it.
func driverArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func writeTrace(path string, recs ...*span.Recorder) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("trace: %v", err)
	}
	err = span.WriteChromeTrace(f, recs...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatalf("trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
}

func printChecks(res *runResult) {
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "  [%s] check %s %s: %s\n", res.Workload, mark, c.Name, c.Detail)
	}
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return runtime.GOARCH
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
