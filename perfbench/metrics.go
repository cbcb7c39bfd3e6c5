package main

import (
	"fmt"
	"time"
)

// workloadNames lists the workloads in the order BENCHMARK.json declares
// them.
var workloadNames = []string{"fft-hm4", "forkjoin-hm5", "tables"}

// sizes is the shape of every workload and layer driver.  Only tests use
// anything but fullSizes.
type sizes struct {
	fftN   int
	fj     fjShape
	tables tablesShape
	drv    driverSizes
}

var fullSizes = sizes{
	fftN: 1 << 16,
	fj:   fjShape{programs: 16, phases: 32, leaves: 64},
	tables: tablesShape{
		machines: []string{"mc3", "hm4"},
		ablN:     1 << 10,
		tableIM:  32,
	},
	drv: driverSizes{
		reps:       3,
		hmOps:      1 << 19,
		fftN:       1 << 12,
		coreRounds: 2000,
		coreForks:  200,
		nativeFFT:  1 << 14,
		nativeSort: 1 << 14,
		nativeMM:   128,
		nativeLR:   1 << 12,
		nativeScan: 1 << 18,
	},
}

func newWorkload(name string, seed int64, sz sizes, corrupt bool) (*workload, error) {
	switch name {
	case "fft-hm4":
		return fftWorkload(seed, sz.fftN, corrupt), nil
	case "forkjoin-hm5":
		return forkjoinWorkload(sz.fj, corrupt), nil
	case "tables":
		return tablesWorkload(sz.tables, corrupt), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// metricDecl is a declared metric and its unit.
type metricDecl struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload, with their units.  Host time is process CPU time (user+system,
// all threads): on a shared virtual machine, wall time also counts the
// time the hypervisor gave the CPUs to someone else, which swings by tens
// of percent from minute to minute.  Wall time per pass stays in the record
// and in the per-layer wall.run_s.
var endToEnd = []metricDecl{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"accesses_per_cpu_s", "1/s"},
	{"vsteps_per_cpu_s", "1/s"},
	{"rows_per_cpu_s", "1/s"},
	{"alloc_mb", "MB"},
	{"maxrss_mb", "MB"},
	{"vsteps", "count"},
	{"miss_l1", "count"},
	{"miss_top", "count"},
}

// moAlgos are the Table II MO rows and noAlgos the Table I and NO-column
// algorithms, as the harness names them.
var (
	moAlgos = []string{"scan", "mt", "mm", "gep", "fft", "sort", "lr", "spmdv", "cc"}
	noAlgos = []string{"ngep", "ngep-d", "mt", "prefix", "fft", "sort", "sort-bitonic", "lr", "cc"}
)

// profLayers are the buckets of the CPU-profile split (layermap.txt).
var profLayers = []string{"hm", "core", "handoff", "algo", "harness", "sweep", "no", "bench", "gc", "other"}

// perLayer are the metrics of a traced run, reported by every workload.
var perLayer = func() []metricDecl {
	out := []metricDecl{
		{"hm.load_hit_ns", "ns"},
		{"hm.load_stream_ns", "ns"},
		{"hm.store_stride_ns", "ns"},
		{"hm.store_pingpong_ns", "ns"},
		{"hm.flush_ms", "ms"},
		{"hm.new_machine_ms", "ms"},
		{"hm.l1_hit_frac", "frac"},
		{"hm.misses_l1", "count"},
		{"hm.misses_top", "count"},
		{"hm.writebacks", "count"},
		{"core.solo_tick_ns", "ns"},
		{"core.rr_tick_ns", "ns"},
		{"core.spawnsb_task_ns", "ns"},
		{"core.cgcsb_task_ns", "ns"},
		{"core.pfor_chunk_ns", "ns"},
		{"core.vsteps_solo", "count"},
		{"core.vsteps_rr", "count"},
		{"core.vsteps_spawnsb", "count"},
		{"core.vsteps_cgcsb", "count"},
		{"core.vsteps_pfor", "count"},
		{"core.placed_top_frac", "frac"},
		{"algo.fft_native_ms", "ms"},
		{"algo.sort_native_ms", "ms"},
		{"algo.mm_native_ms", "ms"},
		{"algo.lr_native_ms", "ms"},
		{"algo.scan_native_ms", "ms"},
	}
	for _, a := range moAlgos {
		out = append(out, metricDecl{"harness.row_ms." + a, "ms"})
	}
	out = append(out, []metricDecl{
		{"sweep.expand_ms", "ms"},
		{"sweep.collect_s", "s"},
		{"sweep.busy_frac", "frac"},
	}...)
	for _, a := range noAlgos {
		out = append(out, metricDecl{"no.row_ms." + a, "ms"})
	}
	out = append(out, []metricDecl{
		{"no.comm", "count"},
		{"no.supersteps", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_frac", "frac"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.mallocs", "count"},
	}...)
	for _, l := range profLayers {
		out = append(out, metricDecl{"prof." + l, "frac"})
	}
	return append(out, []metricDecl{
		{"trace.overhead_frac", "frac"},
		{"wall.run_s", "s"},
	}...)
}()

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
