// Command perfbench is the repository benchmark.  It drives three
// workloads — fft-hm4, forkjoin-hm5 and tables — through the public APIs of
// internal/core, internal/hm, the kernel packages, internal/harness,
// internal/sweep and the network-oblivious simulator, checks every output,
// and prints one JSON result line last on standard output:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, timed with tracing
// off; with -trace 1 they are the per-layer ones of a traced run.  Run it
// through run.sh from the repository root; README.md explains the
// workloads, the metrics and the layer predictions.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation: the command-line flags plus the sizes, which
// only tests shrink.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	out      string // directory for the result record, spans and CPU profile; "" writes none
	sizes    sizes
	corrupt  bool // damage every output before it is checked (tests of the checks)
	// rssProbes child processes each run one pass for maxrss_mb; 0 takes
	// this process's own peak instead (tests, whose binary cannot re-run
	// itself as the benchmark).
	rssProbes int
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed; every input is a pure function of it")
	secs := fs.Int("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	out := fs.String("out", ".bench_build/results", "directory for the result record, spans and CPU profile")
	probe := fs.Bool("probe", false, "internal: run one pass and exit, so the parent reads this process's peak RSS")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		return runProbe(*wl, *seed, stderr)
	}
	if fs.NArg() > 0 || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want -workload NAME -seed N -seconds S(>=1) -trace 0|1 and no other arguments")
		return 2
	}
	opts := options{
		workload:  *wl,
		seed:      *seed,
		duration:  time.Duration(*secs) * time.Second,
		trace:     *trace == 1,
		out:       *out,
		sizes:     fullSizes,
		rssProbes: 3,
	}
	res, err := execute(opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// host identifies the machine a result was measured on, so numbers from
// different hosts are never compared by accident.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
}

func hostOf(opts options) host {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit,
		Workload:   opts.workload,
		Seed:       opts.seed,
		Trace:      opts.trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// execute runs one invocation and writes its record (host, metrics with
// sample counts, failures) and, for a traced run, its spans and CPU
// profile under opts.out.
func execute(opts options, stderr io.Writer) (result, error) {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	w, err := newWorkload(opts.workload, opts.seed, opts.sizes, opts.corrupt)
	if err != nil {
		return result{}, err
	}
	h := hostOf(opts)
	var rep report
	if opts.trace {
		rep, err = tracedRun(w, opts)
	} else {
		rep, err = untracedRun(w, opts)
	}
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "perfbench: FAIL:", f)
	}
	hostLine, _ := json.Marshal(h)
	fmt.Fprintf(stderr, "perfbench: host %s\n", hostLine)
	if opts.out == "" {
		return res, nil
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return result{}, err
	}
	stem := filepath.Join(opts.out, fmt.Sprintf("%s-seed%d-trace%d", opts.workload, opts.seed, btoi(opts.trace)))
	record := struct {
		Host     host              `json:"host"`
		Result   result            `json:"result"`
		Samples  map[string]int    `json:"samples"`
		PassS    []float64         `json:"pass_s"`
		PassCPU  []float64         `json:"pass_cpu_s,omitempty"`
		Failures []string          `json:"failures,omitempty"`
		Files    map[string]string `json:"files,omitempty"`
	}{h, res, rep.samples, rep.passS, rep.passCPU, rep.failures, map[string]string{}}
	if opts.trace {
		record.Files["spans"] = stem + ".spans.json"
		record.Files["cpu_profile"] = stem + ".pprof"
		if err := writeJSON(record.Files["spans"], rep.spans); err != nil {
			return result{}, err
		}
		if err := os.WriteFile(record.Files["cpu_profile"], rep.profile, 0o644); err != nil {
			return result{}, err
		}
	}
	if err := writeJSON(stem+".json", record); err != nil {
		return result{}, err
	}
	return res, nil
}

// runProbe is the child side of the maxrss_mb measurement: one untimed
// pass of the workload, exit status 1 if it failed.
func runProbe(name string, seed int64, stderr io.Writer) int {
	w, err := newWorkload(name, seed, fullSizes, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, r := range w.setup(seed, nil, 0).exec(nil, 0).runs {
		if r.err != nil {
			fmt.Fprintln(stderr, "perfbench: probe:", r.err)
			return 1
		}
	}
	return 0
}

// probeRSS runs n probe children one after another and returns the
// smallest of their peak resident sets in MB.  How far the heap overshoots
// its goal while the collector runs depends on how much CPU the collector
// gets, so a busy host adds a one-sided excess; the smallest peak leaves it
// out, while state a pass really keeps raises every peak.
func probeRSS(opts options, n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var rss []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-probe", "-workload", opts.workload, "-seed", strconv.FormatInt(opts.seed, 10))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("rss probe: %v: %s", err, stderr.String())
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return 0, errors.New("rss probe: no rusage")
		}
		rss = append(rss, float64(ru.Maxrss)*1024/1e6) // Linux reports KiB
	}
	return slices.Min(rss), nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
