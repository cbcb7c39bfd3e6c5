package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"oblivhm/internal/fft"
)

// testSizes shrinks every workload and driver to a fraction of a second.
var testSizes = sizes{
	fftN: 1 << 8,
	fj:   fjShape{programs: 2, phases: 2, leaves: 8},
	tables: tablesShape{
		machines: []string{"mc3"},
		shift:    4,
		ablN:     1 << 8,
		tableIM:  16,
	},
	drv: driverSizes{
		reps:       1,
		hmOps:      1 << 10,
		fftN:       1 << 6,
		coreRounds: 10,
		coreForks:  4,
		nativeFFT:  1 << 6,
		nativeSort: 1 << 6,
		nativeMM:   8,
		nativeLR:   1 << 6,
		nativeScan: 1 << 8,
	},
}

func testRun(t *testing.T, workload string, trace, corrupt bool) result {
	t.Helper()
	var stderr bytes.Buffer
	res, err := execute(options{
		workload: workload,
		seed:     3,
		duration: time.Millisecond,
		trace:    trace,
		sizes:    testSizes,
		corrupt:  corrupt,
	}, &stderr)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !corrupt && (!res.Correct || res.Failed != 0) {
		t.Fatalf("%s trace=%v: %d of %d runs failed:\n%s", workload, trace, res.Failed, res.Attempted, stderr.String())
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("bad metric %q unit %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) {
			t.Errorf("bad workload name %q", w)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the program emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	declared := map[string]string{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	if declared["setup_s"] != "s" {
		t.Error("end_to_end lacks setup_s in s")
	}
	compareDecl(t, "end_to_end", declared, endToEnd)
	declared = map[string]string{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
	compareDecl(t, "per_layer", declared, perLayer)
}

func compareDecl(t *testing.T, what string, declared map[string]string, program []metricDecl) {
	t.Helper()
	if len(declared) != len(program) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", what, len(declared), len(program))
	}
	for _, m := range program {
		if u, ok := declared[m.name]; !ok || u != m.unit {
			t.Errorf("%s: program metric %s (%s) declared as %q in BENCHMARK.json", what, m.name, m.unit, u)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs a reduced-size pass of every
// workload, untraced and traced: each verifies and emits exactly the
// metrics of its mode.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := testRun(t, w, trace, false)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q", w, trace, m.name, got.Unit)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", w, trace, res.Attempted)
			}
		}
	}
}

// TestCorruptedOutputFails damages every output before it is checked: each
// workload must count the runs as failed.
func TestCorruptedOutputFails(t *testing.T) {
	for _, w := range workloadNames {
		res := testRun(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted output passed its checks (%d of %d failed)", w, res.Failed, res.Attempted)
		}
	}
	if res := testRun(t, "fft-hm4", true, true); res.Correct {
		t.Error("traced run: corrupted driver outputs passed their checks")
	}
}

func TestGeneratorIsPureFunctionOfSeed(t *testing.T) {
	render := func(seed int64) string {
		var b strings.Builder
		for _, p := range generate(seed, fullSizes.fj) {
			b.WriteString(p.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	if render(7) != render(7) {
		t.Error("same seed generated different programs")
	}
	if render(7) == render(8) {
		t.Error("different seeds generated the same programs")
	}
	for _, p := range generate(7, fullSizes.fj) {
		if want := fullSizes.fj.phases * fullSizes.fj.leaves; p.leaves != want {
			t.Errorf("program has %d leaves, want %d", p.leaves, want)
		}
	}
}

func TestReferenceFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make([]complex128, 64)
	for i := range in {
		in[i] = complex(rng.Float64(), rng.Float64())
	}
	if err := compareFFT(referenceFFT(in), fft.NaiveDFT(in)); err != nil {
		t.Error(err)
	}
}

// TestLayerMap checks that every internal package has its own entry and
// that runtime handoff and GC frames land in their buckets.
func TestLayerMap(t *testing.T) {
	explicit := map[string]bool{}
	for _, pl := range layerMap {
		explicit[pl.prefix] = true
	}
	dirs, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		files, _ := filepath.Glob(filepath.Join("../internal", d.Name(), "*.go"))
		var lib bool
		for _, f := range files {
			lib = lib || !strings.HasSuffix(f, "_test.go")
		}
		if d.IsDir() && lib && !explicit["oblivhm/internal/"+d.Name()+"."] {
			t.Errorf("layermap.txt has no entry for oblivhm/internal/%s", d.Name())
		}
	}
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "oblivhm/internal/hm.(*Machine).access", "oblivhm/internal/core.(*Ctx).LoadU"}, "hm"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "oblivhm/internal/core.(*strand).recv"}, "handoff"},
		{[]string{"runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "handoff"},
		{[]string{"runtime.coroswitch", "oblivhm/internal/core.(*strand).recv"}, "handoff"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc", "oblivhm/internal/hm.NewMachine"}, "gc"},
		{[]string{"math/rand.(*Rand).Int63", "main.fftInput"}, "bench"},
		{[]string{"oblivhm/internal/newpkg.F", "oblivhm/internal/harness.Run"}, "other"},
		{[]string{"runtime.memmove"}, "other"},
	} {
		if got := classify(tc.frames); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestProbe runs the child side of the maxrss_mb measurement in-process.
func TestProbe(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-probe", "-workload", "forkjoin-hm5", "-seed", "1"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Errorf("probe = %d, stdout %q, stderr %s", code, stdout.String(), stderr.String())
	}
	if code := run([]string{"-probe", "-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("probe of an unknown workload succeeded")
	}
}

// TestBadArguments: a bad invocation exits non-zero without a result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "1"},
		{"-workload", "fft-hm4", "-seconds", "0"},
		{"-workload", "fft-hm4", "-trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-out", ""), &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q", args, code, stdout.String())
		}
	}
}
