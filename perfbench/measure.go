package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// workload is one closed-loop benchmark workload: each pass runs to
// completion before the next one starts.
type workload struct {
	name string
	// dataOblivious marks a workload whose virtual tuple must not depend
	// on its data: the untimed warm-up pass then runs on a second data
	// seed, and every measured pass must still reproduce its tuple.
	dataOblivious bool
	// setup builds the machine and inputs of one pass from a data seed —
	// everything before the first simulated instruction.
	setup func(seed int64, tr *tracer, parent int) instance
}

// instance is one set-up pass, ready to run.
type instance interface {
	// exec runs the simulations and checks their outputs.
	exec(tr *tracer, parent int) pass
}

// pass is what one pass produced: its simulated runs and their counts.
type pass struct {
	setup time.Duration // CPU time of the set-up
	runs  []runOutcome

	accesses, vsteps, missL1, missTop int64
}

// runOutcome is one simulated run of a pass: its virtual tuple (steps,
// per-level max misses, PlacedAt, steals, NO communication) and the error
// of the run or of its output check.
type runOutcome struct {
	tuple string
	err   error
}

// sample is one measured pass with its host costs.
type sample struct {
	wall    time.Duration
	cpu     time.Duration // user+system CPU time of the process during the pass
	p       pass
	alloc   uint64 // bytes allocated on the Go heap during the pass
	mallocs uint64 // heap objects allocated during the pass
	gcs     uint64 // completed GC cycles during the pass
}

// session runs the passes of one invocation and tallies their failures.
type session struct {
	w     *workload
	seed  int64
	first []string // virtual tuples of the first (warm-up) pass

	attempted, failed int
	failures          []string
}

func newSession(w *workload, seed int64) *session { return &session{w: w, seed: seed} }

// warmUp runs the untimed host warm-up pass; its tuples are the reference
// every later pass must reproduce.
func (s *session) warmUp() {
	seed := s.seed
	if s.w.dataOblivious {
		seed = altSeed(seed)
	}
	p := s.w.setup(seed, nil, 0).exec(nil, 0)
	for _, r := range p.runs {
		s.first = append(s.first, r.tuple)
	}
	s.check(p)
}

// altSeed is the second data seed of a data-oblivious workload.
func altSeed(seed int64) int64 { return seed ^ 0x5eed5eed }

// check counts a pass's runs and its failed ones: a run fails if it
// errored, failed its output check, or gave a virtual tuple different from
// the first pass.
func (s *session) check(p pass) {
	if len(p.runs) != len(s.first) {
		s.fail(fmt.Sprintf("pass made %d runs, the first pass %d", len(p.runs), len(s.first)))
	}
	for i, r := range p.runs {
		s.attempted++
		switch {
		case r.err != nil:
			s.fail(fmt.Sprintf("run %d: %v", i, r.err))
		case i >= len(s.first) || r.tuple != s.first[i]:
			s.fail(fmt.Sprintf("run %d: virtual tuple %q differs from the first pass", i, r.tuple))
		}
	}
}

func (s *session) fail(msg string) {
	s.failed++
	if len(s.failures) < 20 {
		s.failures = append(s.failures, s.w.name+": "+msg)
	}
}

// minPasses keeps a median meaningful when a pass is long.
const minPasses = 3

// measure runs passes until d has elapsed and at least minPasses ran.
func (s *session) measure(d time.Duration, tr *tracer) []sample {
	deadline := time.Now().Add(d)
	var out []sample
	for len(out) < minPasses || time.Now().Before(deadline) {
		out = append(out, s.timedPass(tr))
	}
	return out
}

func (s *session) timedPass(tr *tracer) sample {
	// Every pass starts from a collected heap, as a fresh process would.
	runtime.GC()
	before := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	id := tr.begin("pass", 0)
	inst, setup := s.timedSetup(tr, id)
	p := inst.exec(tr, id)
	tr.end(id)
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	p.setup = setup
	after := readRuntime()
	s.check(p)
	return sample{
		wall:    wall,
		cpu:     cpu,
		p:       p,
		alloc:   after.allocBytes - before.allocBytes,
		mallocs: after.allocObjects - before.allocObjects,
		gcs:     after.gcCycles - before.gcCycles,
	}
}

// timedSetup sets up a pass on a locked OS thread and returns the CPU time
// of that thread: set-up runs on the calling goroutine, and the thread's
// clock leaves out the collector's background work on other threads,
// which at well under a millisecond of set-up would otherwise dominate.
func (s *session) timedSetup(tr *tracer, parent int) (instance, time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPUTime()
	inst := s.w.setup(s.seed, tr, parent)
	return inst, threadCPUTime() - start
}

// setupReps extra set-ups are timed per invocation, so setup_s is a median
// over many set-ups even when few passes fit.
const setupReps = 12

func (s *session) setupTimes(passes []sample) []float64 {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // as before every pass
		_, d := s.timedSetup(nil, 0)
		ts = append(ts, d.Seconds())
	}
	for _, p := range passes {
		ts = append(ts, p.p.setup.Seconds())
	}
	return ts
}

// report is what an invocation measured.
type report struct {
	metrics           map[string]metric
	samples           map[string]int // sample count behind each median metric
	attempted, failed int
	failures          []string
	passS             []float64 // wall time of every measured pass
	passCPU           []float64 // CPU time of every measured pass
	spans             []span
	profile           []byte
}

func (s *session) report() report {
	return report{
		metrics:   map[string]metric{},
		samples:   map[string]int{},
		attempted: s.attempted,
		failed:    s.failed,
		failures:  s.failures,
	}
}

func (r *report) set(name string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unitOf[name]}
	r.samples[name] = n
}

// untracedRun measures the end-to-end metrics with tracing off.
func untracedRun(w *workload, opts options) (report, error) {
	s := newSession(w, opts.seed)
	s.warmUp()
	passes := s.measure(opts.duration, nil)
	setups := s.setupTimes(passes)
	rss, nrss := maxRSS(), 1
	if opts.rssProbes > 0 {
		var err error
		if rss, err = probeRSS(opts, opts.rssProbes); err != nil {
			return report{}, err
		}
		nrss = opts.rssProbes
	}
	rep := s.report()
	n := len(passes)
	first := passes[0].p
	rep.passS = each(passes, func(p sample) float64 { return p.wall.Seconds() })
	rep.passCPU = each(passes, func(p sample) float64 { return p.cpu.Seconds() })
	rep.set("cpu_s", median(rep.passCPU), n)
	rep.set("setup_s", median(setups), len(setups))
	rep.set("accesses_per_cpu_s", median(each(passes, func(p sample) float64 { return float64(p.p.accesses) / p.cpu.Seconds() })), n)
	rep.set("vsteps_per_cpu_s", median(each(passes, func(p sample) float64 { return float64(p.p.vsteps) / p.cpu.Seconds() })), n)
	rep.set("rows_per_cpu_s", median(each(passes, func(p sample) float64 { return float64(len(p.p.runs)) / p.cpu.Seconds() })), n)
	rep.set("alloc_mb", median(each(passes, func(p sample) float64 { return float64(p.alloc) / 1e6 })), n)
	rep.set("maxrss_mb", rss, nrss)
	rep.set("vsteps", float64(first.vsteps), 1)
	rep.set("miss_l1", float64(first.missL1), 1)
	rep.set("miss_top", float64(first.missTop), 1)
	return rep, nil
}

// tracedRun takes the per-layer numbers: untimed warm-up, untraced passes
// for the tracing overhead, traced passes under a CPU profile labelled with
// the workload, then the layer drivers.
func tracedRun(w *workload, opts options) (report, error) {
	s := newSession(w, opts.seed)
	s.warmUp()
	untraced := s.measure(opts.duration/2, nil)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, err
	}
	before := readRuntime()
	var traced []sample
	pprof.Do(context.Background(), pprof.Labels("workload", w.name), func(context.Context) {
		traced = s.measure(opts.duration/2, tr)
	})
	after := readRuntime()
	pprof.StopCPUProfile()

	split, err := splitProfile(prof.Bytes(), w.name)
	if err != nil {
		return report{}, err
	}
	rep := s.report()
	rep.profile = prof.Bytes()
	for _, layer := range profLayers {
		rep.set("prof."+layer, split[layer], 1)
	}
	wall := func(p sample) float64 { return p.wall.Seconds() }
	cpu := func(p sample) float64 { return p.cpu.Seconds() }
	rep.passS = each(traced, wall)
	rep.passCPU = each(traced, cpu)
	rep.set("wall.run_s", median(each(untraced, wall)), len(untraced))
	rep.set("trace.overhead_frac", median(each(traced, cpu))/median(each(untraced, cpu))-1, len(traced))
	n := len(traced)
	rep.set("runtime.gc_cycles", median(each(traced, func(p sample) float64 { return float64(p.gcs) })), n)
	rep.set("runtime.alloc_mb", median(each(traced, func(p sample) float64 { return float64(p.alloc) / 1e6 })), n)
	rep.set("runtime.mallocs", median(each(traced, func(p sample) float64 { return float64(p.mallocs) })), n)
	rep.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/(after.totalCPU-before.totalCPU), 1)

	d := &drivers{rep: &rep, tr: tr, sizes: opts.sizes, seed: opts.seed, corrupt: opts.corrupt}
	d.run()
	rep.spans = tr.spans
	return rep, nil
}

// runtimeStats is a runtime/metrics reading.
type runtimeStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		ss[i].Name = name
	}
	metrics.Read(ss)
	return runtimeStats{
		allocBytes:   ss[0].Value.Uint64(),
		allocObjects: ss[1].Value.Uint64(),
		gcCycles:     ss[2].Value.Uint64(),
		gcCPU:        ss[3].Value.Float64(),
		totalCPU:     ss[4].Value.Float64(),
	}
}

// cpuTime is the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime is the CPU time of the calling OS thread
// (CLOCK_THREAD_CPUTIME_ID, exact to the nanosecond, where getrusage's
// per-thread figure lags by up to a scheduler tick).
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// maxRSS is the peak resident set of this process in MB.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func each(ps []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
