// Command vmndbench is the repository's benchmark. It drives the real
// vmnd binary over its NDJSON stdin/stdout protocol with one closed-loop
// client and reports what that client sees (-trace 0), or replays the
// same seeded inputs through the daemon's request path in-process and
// reports each layer's share (-trace 1). Every run checks its final
// verdicts against a from-scratch verification of the same final
// network state. See README.md for the workloads and metrics, and run.sh
// for the one command that builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eMetrics are reported with -trace 0; error_frac is printed but left
// out of the result line (it is 0 on every benchmark workload).
var e2eMetrics = []string{"setup_s", "req_p50_ms", "req_p90_ms", "req_per_s", "resp_kb_per_req", "peak_rss_mb", "daemon_cpu_ms_per_req"}

func main() {
	var (
		name    = flag.String("workload", "", "vpc-edit | dc-failover | cache-solve | all (the three), or a defect probe: dc-failover-tor | fattree-switch")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured stream length")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics through vmnd; 1: per-layer metrics from an in-process traced replay")
		vmnd    = flag.String("vmnd", "", "vmnd binary built from the tree under test")
		work    = flag.String("work", ".bench_build", "directory for generated inputs, daemon state, traces and count records")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	}
	if *vmnd == "" && *trace == 0 {
		fatal(fmt.Errorf("-vmnd is required with -trace 0"))
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads[:3]
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		ws = []*workload{w}
	}
	ok := true
	for _, w := range ws {
		c := runConfig{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), vmnd: *vmnd, work: *work}
		run := runE2E
		if *trace == 1 {
			run = runReplay
		}
		o, err := run(c)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if !report(w, c, *trace, o) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints a run's metrics by name and unit, its stamp, and the
// result line; it returns whether the run was correct.
func report(w *workload, c runConfig, trace int, o *outcome) bool {
	st := stamp(c.seed)
	fmt.Printf("# %s seed=%d trace=%d nproc=%d GOMAXPROCS=%d %s cpu=%q\n",
		w.name, c.seed, trace, st.NProc, st.GOMAXPROCS, st.GoVersion, st.CPU)
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.4f %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	fmt.Printf("attempted %d, failed %d\n", o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Println("note:", n)
	}
	for _, p := range o.problems {
		fmt.Println("INCORRECT:", p)
	}
	if w.defect {
		fmt.Println("note: defect probe, not a benchmark workload; failed requests are the known defect")
	}
	detail, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Stamp    stampInfo         `json:"stamp"`
		Metrics  map[string]metric `json:"metrics"`
		Notes    []string          `json:"notes,omitempty"`
		Problems []string          `json:"problems,omitempty"`
	}{w.name, st, o.metrics, o.notes, o.problems})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(detail))

	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if trace == 0 {
		for _, n := range e2eMetrics {
			res.Metrics[n] = o.metrics[n]
		}
	} else {
		res.Metrics = o.metrics
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	return res.Correct
}

// stampInfo identifies the machine and toolchain a result was measured on.
type stampInfo struct {
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func stamp(seed int64) stampInfo {
	s := stampInfo{Seed: seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// checkCounts compares the per-request dirty-group and solve counts of
// a run's first requests with the record of an earlier run of the same
// workload and seed (daemon or in-process replay alike), and records
// them if there is none. The counts are deterministic functions of the
// inputs, so any drift is reported as a problem.
func checkCounts(c runConfig, counts []string) []string {
	dir := filepath.Join(c.work, "counts")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.txt", c.w.name, c.seed))
	got := strings.Join(counts, " ")
	prev, err := os.ReadFile(path)
	if err == nil {
		if string(prev) != got {
			return []string{fmt.Sprintf("per-request counts drifted from an earlier run of this seed:\n  was %s\n  now %s", prev, got)}
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return []string{err.Error()}
	}
	if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
		return []string{err.Error()}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmndbench:", err)
	os.Exit(2)
}
