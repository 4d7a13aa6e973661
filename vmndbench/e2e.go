package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// setupRuns is how many times a run starts vmnd to measure setup_s
	// (the median is reported); the last start serves the stream.
	setupRuns = 7
	// warmupReqs requests are sent before timing starts.
	warmupReqs = 32
	// countPrefix is how many leading requests have their dirty-group
	// and solve counts recorded; these must repeat exactly across runs of
	// one seed (see checkCounts).
	countPrefix = 32
)

// runConfig is one benchmark run.
type runConfig struct {
	w       *workload
	seed    int64
	seconds time.Duration
	vmnd    string // vmnd binary built from the tree under test
	work    string // working directory: inputs, state, traces, count records
}

func (c runConfig) dir() string {
	return filepath.Join(c.work, "run", c.w.name)
}

// outcome is one run's result: the figures the benchmark reports and
// the correctness findings behind the correct flag.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string // human-readable context (sample counts, errors)
	problems          []string // correctness failures; any makes the run incorrect
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// respHeader is the part of a vmnd response line the client checks per
// request.
type respHeader struct {
	Error       string `json:"error"`
	Invariants  int    `json:"invariants"`
	DirtyGroups int    `json:"dirty_groups"`
	CacheMisses int    `json:"cache_misses"`
}

// runE2E drives the real daemon with tracing off and measures what a
// client sees.
func runE2E(c runConfig) (*outcome, error) {
	if err := freshDir(c.dir()); err != nil {
		return nil, err
	}
	in, err := c.w.generate(c.dir(), c.seed)
	if err != nil {
		return nil, err
	}
	stateDir := filepath.Join(c.dir(), "state")
	args := append([]string(nil), c.w.flags...)
	if in.topoPath != "" {
		args = append(args, "-topology", in.topoPath)
	}
	if c.w.durable {
		args = append(args, "-state-dir", stateDir, "-fsync", "always")
	}

	var (
		setups []float64
		d      *daemon
		first  []byte
	)
	for i := 0; i < setupRuns; i++ {
		if c.w.durable {
			if err := freshDir(stateDir); err != nil {
				return nil, err
			}
		}
		dd, f, setup, err := startDaemon(c.vmnd, args)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		if i < setupRuns-1 {
			if err := dd.close(); err != nil {
				return nil, err
			}
			continue
		}
		d, first = dd, f
	}
	var h0 respHeader
	if err := json.Unmarshal(first, &h0); err != nil || h0.Error != "" {
		d.kill()
		return nil, fmt.Errorf("initial result line: %v %s", err, h0.Error)
	}

	o := &outcome{metrics: map[string]metric{}}
	var (
		sent      [][]byte
		lat       []float64 // ms, timed requests
		respBytes int
		counts    []string
		last      []byte
		errs      = map[string]int{}
	)
	send := func(req []byte, timed bool) error {
		t0 := time.Now()
		resp, err := d.request(req)
		elapsed := time.Since(t0)
		if err != nil {
			return err
		}
		sent = append(sent, req)
		var h respHeader
		if err := json.Unmarshal(resp, &h); err != nil {
			o.problems = append(o.problems, fmt.Sprintf("response %d does not parse: %v", len(sent), err))
		}
		count := fmt.Sprintf("%d/%d", h.DirtyGroups, h.CacheMisses)
		switch {
		case h.Error != "":
			o.failed++
			errs[h.Error]++
			count = "err"
		case h.Invariants != h0.Invariants:
			o.problems = append(o.problems, fmt.Sprintf("response %d covers %d invariants, expected %d", len(sent), h.Invariants, h0.Invariants))
		}
		if len(counts) < countPrefix {
			counts = append(counts, count)
		}
		if timed {
			lat = append(lat, float64(elapsed.Nanoseconds())/1e6)
			respBytes += len(resp)
		}
		last = append(last[:0], resp...)
		return nil
	}
	for len(sent) < warmupReqs {
		for _, r := range in.stream.step() {
			if err := send(r, false); err != nil {
				return nil, err
			}
		}
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		d.kill()
		return nil, err
	}
	steal0 := stealSeconds()
	start := time.Now()
	for time.Since(start) < c.seconds || len(sent) < countPrefix {
		for _, r := range in.stream.step() {
			if err := send(r, true); err != nil {
				return nil, err
			}
		}
	}
	steal1 := stealSeconds()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		d.kill()
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.close(); err != nil {
		return nil, err
	}

	o.attempted = len(sent)
	o.problems = append(o.problems, checkCounts(c, counts)...)
	got, err := wireVerdicts(last)
	if err != nil {
		o.problems = append(o.problems, err.Error())
	} else {
		want, err := oracleVerdicts(c.w, in, sent)
		if err != nil {
			return nil, err
		}
		for _, diff := range compareVerdicts(got, want) {
			o.problems = append(o.problems, "final verdicts: "+diff)
		}
	}

	var sum float64
	for _, l := range lat {
		sum += l
	}
	sort.Float64s(lat)
	o.metrics["setup_s"] = metric{median(setups), "s"}
	o.metrics["req_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	o.metrics["req_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	o.metrics["req_per_s"] = metric{float64(len(lat)) / (sum / 1e3), "1/s"}
	o.metrics["resp_kb_per_req"] = metric{float64(respBytes) / 1024 / float64(len(lat)), "KiB"}
	o.metrics["peak_rss_mb"] = metric{rss, "MiB"}
	o.metrics["daemon_cpu_ms_per_req"] = metric{(cpu1 - cpu0) * 1e3 / float64(len(lat)), "ms"}
	o.metrics["error_frac"] = metric{float64(o.failed) / float64(len(sent)), "ratio"}

	o.notes = append(o.notes, fmt.Sprintf("timed requests: %d (after %d warm-up); setups: %d", len(lat), len(sent)-len(lat), len(setups)))
	if steal0 >= 0 && steal1 >= 0 {
		o.notes = append(o.notes, fmt.Sprintf("CPU time stolen by the hypervisor during the timed stream: %.2f s (all CPUs)", steal1-steal0))
	}
	if len(lat) < 100 {
		o.notes = append(o.notes, fmt.Sprintf("req_p90_ms has %d samples beyond it (fewer than 10)", len(lat)-int(0.9*float64(len(lat)))))
	}
	msgs := make([]string, 0, len(errs))
	for msg := range errs {
		msgs = append(msgs, msg)
	}
	sort.Strings(msgs)
	for _, msg := range msgs {
		o.notes = append(o.notes, fmt.Sprintf("%d requests answered with error: %s", errs[msg], msg))
	}
	o.notes = append(o.notes, "per-request dirty/solve counts (first requests): "+strings.Join(counts, " "))
	return o, nil
}

// stealSeconds reads the machine's cumulative steal time (the time a
// hypervisor ran something else while a CPU of this guest was runnable);
// -1 where /proc/stat has none. Timings move with it on shared hosts.
func stealSeconds() float64 {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	first, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(first)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
