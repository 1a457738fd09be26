package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/marius"
)

// setupEnv carries a set-up request to the child process. Set-up
// (generating the graph and exporting it as raw TSV) runs in a child of
// the benchmark so that its memory and time never land in a measured
// phase: the parent only ever sees the exported files, exactly what a
// user would hand to mariusprep.
const setupEnv = "MARIUSBENCH_SETUP"

type setupRequest struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Tiny     bool   `json:"tiny"`
	Dir      string `json:"dir"`
}

// runSetupChild is the child side: when the environment carries a
// request it generates, exports, prints the exported file set as JSON and
// exits. It returns only when this process is not a set-up child.
func runSetupChild() {
	raw := os.Getenv(setupEnv)
	if raw == "" {
		return
	}
	var req setupRequest
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		fatalf("setup child: bad request: %v", err)
	}
	wl, ok := findWorkload(req.Workload)
	if !ok {
		fatalf("setup child: unknown workload %q", req.Workload)
	}
	if req.Tiny {
		wl = wl.tiny()
	}
	files, err := dataset.Export(wl.generate(req.Seed), req.Dir, "tsv")
	if err != nil {
		fatalf("setup child: export: %v", err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(files); err != nil {
		fatalf("setup child: %v", err)
	}
	os.Exit(0)
}

// generate builds the workload's graph from the run seed.
func (w workload) generate(seed int64) *graph.Graph {
	if w.Task == marius.TaskLP {
		cfg := w.KG
		cfg.Seed = seed
		return gen.KG(cfg)
	}
	cfg := w.SBM
	cfg.Seed = seed
	return gen.SBM(cfg)
}

// setUp runs the set-up child reps times, each into a fresh directory,
// and returns the last export plus every wall time (spawn to exit, what
// a user waits for).
func setUp(c *runConfig, reps int) (*dataset.ExportFiles, []float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var files *dataset.ExportFiles
	var walls []float64
	for i := 0; i < reps; i++ {
		dir := filepath.Join(c.workDir, "raw")
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		req, _ := json.Marshal(setupRequest{Workload: c.wl.Name, Seed: c.seed, Tiny: c.tiny, Dir: dir})
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), setupEnv+"="+string(req))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		out, err := cmd.Output()
		walls = append(walls, time.Since(t0).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("setup child: %w", err)
		}
		files = new(dataset.ExportFiles)
		if err := json.Unmarshal(out, files); err != nil {
			return nil, nil, fmt.Errorf("setup child printed %q: %w", out, err)
		}
	}
	return files, walls, nil
}

// median of vals (the mean of the two middle values for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
