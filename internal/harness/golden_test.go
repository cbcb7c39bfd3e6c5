package harness

// Golden-metrics regression tests: the engine's determinism contract.
//
// The simulated executor promises that a given (algorithm, machine, options)
// triple produces byte-identical metrics on every run and across engine
// rewrites: virtual Steps, the per-level MaxMisses cache complexity,
// the per-level PlacedAt anchoring counts, and the Steals counter.  These
// tests pin that contract against JSON snapshots under testdata/ that were
// generated from the seed engine, before the fast-path rework; any scheduler
// or simulator change that shifts a single metric fails here.
//
// Regenerate (only when a metric change is intended and reviewed) with
//
//	go test ./internal/harness -run TestGoldenMetrics -update

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"oblivhm/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden metric snapshots in testdata/")

// goldenCase is one workload pinned by the contract.  Opt names an engine
// option set so that scheduler variants (stealing, flat placement, other
// quanta) are pinned too.
type goldenCase struct {
	Algo string
	N    int
	Opt  string // "" | "steal" | "flat" | "q8"
}

func (g goldenCase) key() string {
	k := fmt.Sprintf("%s/n%d", g.Algo, g.N)
	if g.Opt != "" {
		k += "/" + g.Opt
	}
	return k
}

func (g goldenCase) opts() []core.Opt {
	opts, err := OptionSet(g.Opt)
	if err != nil {
		panic("unknown golden option set " + g.Opt + ": " + err.Error())
	}
	return opts
}

// goldenMetrics is the snapshotted slice of an MOResult.
type goldenMetrics struct {
	Steps     int64   `json:"steps"`
	MaxMisses []int64 `json:"maxMisses"` // per cache level, 1..h-1
	PlacedAt  []int   `json:"placedAt"`  // per cache level, 1..h-1
	Steals    int64   `json:"steals"`
}

func allAlgoCases() []goldenCase {
	sizes := map[string]int{
		"mt": 1 << 10, "mt-naive": 1 << 10,
		"scan": 1 << 12,
		"fft":  1 << 9, "fft-iter": 1 << 9,
		"sort": 1 << 9,
		"mm":   1 << 10, "mm-tiled": 1 << 10,
		"gep": 1 << 10, "gep-ref": 1 << 10,
		"spmdv": 1 << 10, "spmdv-rand": 1 << 10,
		"lr": 1 << 8, "lr-wyllie": 1 << 8,
		"cc": 1 << 7,
	}
	var cases []goldenCase
	for _, algo := range MOAlgos() {
		n, ok := sizes[algo]
		if !ok {
			panic("golden sizes missing algo " + algo)
		}
		cases = append(cases, goldenCase{Algo: algo, N: n})
	}
	return cases
}

// goldenSuite maps machine name -> pinned workloads.  Every registered MO
// algorithm runs on the two stock machines the benchmarks use (mc3, hm4);
// hm5 / mc3a / seq pin deeper hierarchies, set-associativity and the
// single-core (pure solo batching) schedule on a representative subset, and
// the Opt variants pin the stealing / flat / fine-quantum schedules.
func goldenSuite() map[string][]goldenCase {
	return map[string][]goldenCase{
		"mc3": allAlgoCases(),
		"hm4": append(allAlgoCases(),
			goldenCase{Algo: "sort", N: 1 << 9, Opt: "steal"},
			goldenCase{Algo: "mm", N: 1 << 10, Opt: "flat"},
			goldenCase{Algo: "mt", N: 1 << 10, Opt: "q8"},
		),
		"hm5": {
			{Algo: "scan", N: 1 << 12},
			{Algo: "sort", N: 1 << 9},
			{Algo: "mm", N: 1 << 10},
			{Algo: "lr", N: 1 << 8},
		},
		"mc3a": {
			{Algo: "fft", N: 1 << 9},
			{Algo: "sort", N: 1 << 9},
		},
		"seq": {
			{Algo: "scan", N: 1 << 12},
			{Algo: "fft", N: 1 << 9},
			{Algo: "sort", N: 1 << 9},
		},
	}
}

func goldenPath(machine string) string {
	return filepath.Join("testdata", "golden_"+machine+".json")
}

func measure(t *testing.T, machine string, gc goldenCase) goldenMetrics {
	t.Helper()
	res, err := RunMO(gc.Algo, machine, gc.N, gc.opts()...)
	if err != nil {
		t.Fatalf("%s on %s: %v", gc.key(), machine, err)
	}
	return metricsTuple(res)
}

func metricsTuple(r MOResult) goldenMetrics {
	m := goldenMetrics{Steps: r.Steps, PlacedAt: r.PlacedAt, Steals: r.Steals}
	for _, l := range r.Levels {
		m.MaxMisses = append(m.MaxMisses, l.MaxMisses)
	}
	return m
}

func TestGoldenMetrics(t *testing.T) {
	suite := goldenSuite()
	var machines []string
	for m := range suite {
		machines = append(machines, m)
	}
	sort.Strings(machines)
	for _, machine := range machines {
		machine := machine
		cases := suite[machine]
		t.Run(machine, func(t *testing.T) {
			got := make(map[string]goldenMetrics, len(cases))
			for _, gc := range cases {
				got[gc.key()] = measure(t, machine, gc)
			}
			checkGolden(t, goldenPath(machine), got)
		})
	}
}

// checkGolden compares got against the JSON snapshot at path, or rewrites
// the snapshot under -update.
func checkGolden[T any](t *testing.T, path string, got map[string]T) {
	t.Helper()
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d snapshots to %s", len(got), path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot %s (run with -update to create): %v", path, err)
	}
	want := map[string]T{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden snapshot %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s: snapshot has %d entries, suite has %d (run -update after reviewing)", path, len(want), len(got))
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: no snapshot for %s (run -update after reviewing)", path, k)
			continue
		}
		if !reflect.DeepEqual(w, got[k]) {
			t.Errorf("%s: metrics drifted from the snapshot:\n  want %+v\n  got  %+v", k, w, got[k])
		}
	}
}

// TestGoldenMetricsRerunStable: two runs of the same workload in one process
// must agree with each other even without snapshots on disk — the in-process
// half of the determinism contract (catches map-iteration or scheduling
// nondeterminism directly, with a clearer failure than a snapshot diff).
func TestGoldenMetricsRerunStable(t *testing.T) {
	for _, gc := range []goldenCase{
		{Algo: "sort", N: 1 << 9},
		{Algo: "fft", N: 1 << 9},
		{Algo: "gep", N: 1 << 10},
		{Algo: "sort", N: 1 << 9, Opt: "steal"},
	} {
		a := measure(t, "hm4", gc)
		b := measure(t, "hm4", gc)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two in-process runs disagree: %+v vs %+v", gc.key(), a, b)
		}
	}
}
