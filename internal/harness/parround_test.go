package harness

// Parallel-rounds-vs-serial equivalence at the harness level for the
// phase-split engine backend (DESIGN.md §10): the full golden
// algo × machine matrix re-run under core.WithParallelRounds must
// reproduce the serial metric tuple byte for byte at every worker count,
// and the 16-seed chaos sweep must reproduce the serial chaos schedules
// (chaos runs serialize the whole loop, so this pins the documented
// fallback).  Together with golden_test.go this closes the loop: serial ==
// goldens, parallel rounds == serial, therefore parallel rounds == goldens.
//
// CI runs this file under -race (the workflow's parallel-equivalence step):
// the speculation phase is the only place the engine runs several strands
// at the same real instant, so the race detector is the half of the
// contract the metrics cannot show.

import (
	"reflect"
	"sort"
	"testing"

	"oblivhm/internal/core"
)

var parallelWorkerCounts = []int{2, 4, 8}

// measureParRounds is measure() with WithParallelRounds(workers) appended.
func measureParRounds(t *testing.T, machine string, gc goldenCase, workers int) goldenMetrics {
	t.Helper()
	res, err := RunMO(gc.Algo, machine, gc.N, append(gc.opts(), core.WithParallelRounds(workers))...)
	if err != nil {
		t.Fatalf("%s on %s (pr workers=%d): %v", gc.key(), machine, workers, err)
	}
	return metricsTuple(res)
}

// forkHeavyPair extends the parallel-rounds matrix and chaos sweep beyond
// the golden suite: recursive FFT forks a full fan of subproblems at every
// tree node, and the q8 option set shrinks the quantum so forks land in
// nearly every round — the admission-heaviest schedule we can drive.  It
// exercises the deferred-fork replay (speculators surviving their own
// admissions) far harder than the stock golden cases, whose long pure
// stretches rarely interleave forks with speculation.
var forkHeavyPair = struct {
	machine string
	gc      goldenCase
}{"hm5", goldenCase{Algo: "fft", N: 1 << 8, Opt: "q8"}}

// TestParallelRoundsMatchSerialGoldenMatrix: the full golden suite at every
// worker count, plus the fork-heavy pair.  In -short mode each case keeps
// one rotating worker count.
func TestParallelRoundsMatchSerialGoldenMatrix(t *testing.T) {
	suite := goldenSuite()
	suite[forkHeavyPair.machine] = append(suite[forkHeavyPair.machine], forkHeavyPair.gc)
	var machines []string
	for m := range suite {
		machines = append(machines, m)
	}
	sort.Strings(machines)
	for _, machine := range machines {
		machine := machine
		cases := suite[machine]
		t.Run(machine, func(t *testing.T) {
			t.Parallel()
			for i, gc := range cases {
				serial := measure(t, machine, gc)
				workers := parallelWorkerCounts
				if testing.Short() {
					workers = parallelWorkerCounts[i%len(parallelWorkerCounts) : i%len(parallelWorkerCounts)+1]
				}
				for _, w := range workers {
					if pr := measureParRounds(t, machine, gc, w); !reflect.DeepEqual(serial, pr) {
						t.Errorf("%s pr workers=%d diverged from serial:\n  serial          %+v\n  parallel-rounds %+v",
							gc.key(), w, serial, pr)
					}
				}
			}
		})
	}
}

// parallelChaosPairs covers all five machine shapes with sizes small enough
// that the 16-seed × worker-count sweep stays cheap.
var parallelChaosPairs = []struct {
	machine string
	gc      goldenCase
}{
	{"mc3", goldenCase{Algo: "sort", N: 1 << 7}},
	{"mc3", goldenCase{Algo: "scan", N: 1 << 10}},
	{"mc3a", goldenCase{Algo: "fft", N: 1 << 7}},
	{"hm4", goldenCase{Algo: "mm", N: 1 << 8}},
	{"hm4", goldenCase{Algo: "sort", N: 1 << 7, Opt: "steal"}},
	{"hm4", goldenCase{Algo: "mt", N: 1 << 8, Opt: "q8"}},
	{"hm5", goldenCase{Algo: "lr", N: 1 << 6}},
	{"seq", goldenCase{Algo: "fft", N: 1 << 7}},
}

// TestParallelRoundsChaosSweepMatchesSerial: for every machine-shape pair
// and chaos seed, WithParallelRounds must land on the identical perturbed
// schedule — chaos serializes the loop, and this sweep pins that the
// option's presence alone changes nothing.  -short keeps a rotating pair
// of seeds per case.
func TestParallelRoundsChaosSweepMatchesSerial(t *testing.T) {
	pairs := append(append([]struct {
		machine string
		gc      goldenCase
	}{}, parallelChaosPairs...), forkHeavyPair)
	for i, pc := range pairs {
		i, pc := i, pc
		t.Run(pc.machine+"/"+pc.gc.key(), func(t *testing.T) {
			t.Parallel()
			seeds := make([]int64, 0, chaosSeeds)
			for s := 0; s < chaosSeeds; s++ {
				seeds = append(seeds, int64(s))
			}
			if testing.Short() {
				seeds = []int64{int64(i % chaosSeeds), int64((i + 5) % chaosSeeds)}
			}
			for _, seed := range seeds {
				serialRes, err := RunMO(pc.gc.Algo, pc.machine, pc.gc.N, append(pc.gc.opts(), core.WithChaos(seed))...)
				if err != nil {
					t.Fatalf("serial seed %d: %v", seed, err)
				}
				serial := metricsTuple(serialRes)
				for _, w := range parallelWorkerCounts {
					prRes, err := RunMO(pc.gc.Algo, pc.machine, pc.gc.N,
						append(pc.gc.opts(), core.WithChaos(seed), core.WithParallelRounds(w))...)
					if err != nil {
						t.Fatalf("seed %d pr workers=%d: %v", seed, w, err)
					}
					if pr := metricsTuple(prRes); !reflect.DeepEqual(serial, pr) {
						t.Errorf("seed %d pr workers=%d: chaos schedule diverged:\n  serial          %+v\n  parallel-rounds %+v",
							seed, w, serial, pr)
					}
				}
			}
		})
	}
}

// TestParallelRoundsOptionSets: the named pr* option sets resolve and run —
// a sweep/CLI smoke over one small case per set, pinned against "default".
func TestParallelRoundsOptionSets(t *testing.T) {
	base, err := Run(RunConfig{Algo: "sort", Machine: "mc3", N: 1 << 7})
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	want := metricsTuple(base)
	for _, name := range []string{"pr2", "pr4"} {
		res, err := Run(RunConfig{Algo: "sort", Machine: "mc3", N: 1 << 7, Options: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := metricsTuple(res); !reflect.DeepEqual(want, got) {
			t.Errorf("%s diverged from default:\n  default %+v\n  %s %+v", name, want, name, got)
		}
	}
	// pr4steal changes the schedule (stealing on), so only check it runs.
	if _, err := Run(RunConfig{Algo: "sort", Machine: "mc3", N: 1 << 7, Options: "pr4steal"}); err != nil {
		t.Fatalf("pr4steal: %v", err)
	}
}
