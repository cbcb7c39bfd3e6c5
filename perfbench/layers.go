package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"oblivhm/internal/core"
	"oblivhm/internal/fft"
	"oblivhm/internal/gep"
	"oblivhm/internal/harness"
	"oblivhm/internal/hm"
	"oblivhm/internal/listrank"
	"oblivhm/internal/scan"
	"oblivhm/internal/spms"
	"oblivhm/internal/sweep"
)

// The layer drivers of a traced run time direct calls into each layer's
// public functions.  Each takes its shape from the workload it belongs to:
// hm from fft-hm4 on hm4, core from forkjoin-hm5 on hm5, harness, sweep and
// no from tables.  Every traced run runs all of them, so every workload
// reports every per-layer metric.

// driverSizes sizes the layer drivers.
type driverSizes struct {
	reps       int // repetitions of each timed driver; medians are reported
	hmOps      int // accesses per hm access driver
	fftN       int // MO-FFT size whose hm4 cache counters are reported
	coreRounds int // rounds per core tick driver
	coreForks  int // fork sites per core fork driver

	nativeFFT, nativeSort, nativeMM, nativeLR, nativeScan int
}

type drivers struct {
	rep     *report
	tr      *tracer
	sizes   sizes
	seed    int64
	corrupt bool
}

func (d *drivers) run() {
	d.hm()
	d.core()
	d.algo()
	d.tables()
}

// check counts one driver output check.
func (d *drivers) check(what string, err error) {
	d.rep.attempted++
	if err != nil {
		d.rep.failed++
		d.rep.failures = append(d.rep.failures, what+": "+err.Error())
	}
}

// medianOf times body reps times, after an untimed prep each time, and
// returns the median duration.
func (d *drivers) medianOf(prep, body func()) time.Duration {
	ts := make([]float64, d.sizes.drv.reps)
	for i := range ts {
		if prep != nil {
			prep()
		}
		start := time.Now()
		body()
		ts[i] = float64(time.Since(start))
	}
	return time.Duration(median(ts))
}

func perOp(t time.Duration, ops int) float64 { return float64(t) / float64(ops) }

// sink keeps the loads of the hm drivers from being optimised away.
var sink uint64

// hm drives the cache model on hm4, the fft-hm4 machine.
func (d *drivers) hm() {
	sp := d.tr.begin("driver.hm", 0)
	defer d.tr.end(sp)
	cfg := hm.HM4(4, 4)
	n := d.sizes.drv.hmOps
	d.rep.set("hm.new_machine_ms", ms(d.medianOf(nil, func() { hm.MustMachine(cfg) })), d.sizes.drv.reps)

	m := hm.MustMachine(cfg)
	top := cfg.Levels[len(cfg.Levels)-1]
	ws := 4 * top.Capacity // a working set four times the top cache
	base := m.Alloc(ws)
	flush := func() { m.FlushCaches() }
	stream := func() {
		for i := 0; i < n; i++ {
			sink += m.Load(0, base+hm.Addr(int64(i)%ws))
		}
	}
	d.rep.set("hm.load_hit_ns", perOp(d.medianOf(flush, func() {
		for i := 0; i < n; i++ {
			sink += m.Load(0, base+hm.Addr(i&63))
		}
	}), n), d.sizes.drv.reps)
	d.rep.set("hm.load_stream_ns", perOp(d.medianOf(flush, stream), n), d.sizes.drv.reps)
	d.rep.set("hm.store_stride_ns", perOp(d.medianOf(flush, func() {
		for i := 0; i < n; i++ {
			m.Store(0, base+hm.Addr(int64(i)*top.Block%ws), uint64(i))
		}
	}), n), d.sizes.drv.reps)
	// Two cores under different L2s write the same 64 level-1 blocks in
	// turn: every write invalidates the other core's copy.
	far := cfg.Cores() - 1
	b1 := cfg.Levels[0].Block
	d.rep.set("hm.store_pingpong_ns", perOp(d.medianOf(flush, func() {
		for i := 0; i < n; i++ {
			m.Store((i&1)*far, base+hm.Addr(int64(i>>1&63)*b1), uint64(i))
		}
	}), n), d.sizes.drv.reps)
	d.rep.set("hm.flush_ms", ms(d.medianOf(stream, flush)), d.sizes.drv.reps)

	// The cache counters of an MO-FFT on hm4.
	fm := hm.MustMachine(cfg)
	s := core.NewSim(fm)
	in := fftInput(d.seed, d.sizes.drv.fftN)
	x := s.NewC128(len(in))
	for i, v := range in {
		s.PokeC(x, i, v)
	}
	_, err := s.TryRunCold(fft.SpaceBound(len(in)), func(c *core.Ctx) { fft.MOFFT(c, x) })
	if err == nil {
		err = compareFFT(peekC(s, x, d.corrupt), referenceFFT(in))
	}
	d.check("hm driver fft", err)
	var hits, l1, topMiss, wb int64
	for li, level := range fm.ByLevel {
		for _, c := range level {
			if li == 0 {
				hits += c.Stats.Hits
				l1 += c.Stats.Misses
			}
			if li == len(fm.ByLevel)-1 {
				topMiss += c.Stats.Misses
			}
			wb += c.Stats.Writebacks
		}
	}
	d.rep.set("hm.l1_hit_frac", float64(hits)/float64(max(hits+l1, 1)), 1)
	d.rep.set("hm.misses_l1", float64(l1), 1)
	d.rep.set("hm.misses_top", float64(topMiss), 1)
	d.rep.set("hm.writebacks", float64(wb), 1)
}

func peekC(s *core.Session, x core.C128, corrupt bool) []complex128 {
	out := make([]complex128, x.N)
	for i := range out {
		out[i] = s.PeekC(x, i)
	}
	if corrupt {
		out[0]++
	}
	return out
}

// core drives the engine with tick-only programs on hm5, the forkjoin-hm5
// machine: no memory access, so the cache model does no work.
func (d *drivers) core() {
	sp := d.tr.begin("driver.core", 0)
	defer d.tr.end(sp)
	cfg := hm.HM5(2, 4, 4)
	rounds, forks := d.sizes.drv.coreRounds, d.sizes.drv.coreForks
	var s *core.Session
	var st core.RunStats
	var err error
	prog := func(name, vsteps string, ops int, root func(*core.Ctx)) {
		t := d.medianOf(func() { s = core.NewSim(hm.MustMachine(cfg)) }, func() { st, err = s.TryRun(fjRootSpace, root) })
		if err == nil && st.Sim.Accesses != 0 {
			err = fmt.Errorf("tick-only program made %d accesses", st.Sim.Accesses)
		}
		d.check(name, err)
		d.rep.set(name, perOp(t, ops), d.sizes.drv.reps)
		d.rep.set(vsteps, float64(st.Steps), 1)
	}
	ticks := func(c *core.Ctx) {
		for i := 0; i < rounds; i++ {
			c.Tick(quantum)
		}
	}
	prog("core.solo_tick_ns", "core.vsteps_solo", rounds, ticks)
	// Sixteen strands on sixteen L2s contend for every round.
	prog("core.rr_tick_ns", "core.vsteps_rr", 16*rounds, func(c *core.Ctx) {
		c.SpawnCGCSB(fjMinSpace, 16, func(cc *core.Ctx, _ int) { ticks(cc) })
	})
	spaces := []int64{1 << 6, 1 << 10, 1 << 13, 1 << 17}
	prog("core.spawnsb_task_ns", "core.vsteps_spawnsb", 8*forks, func(c *core.Ctx) {
		for i := 0; i < forks; i++ {
			tasks := make([]core.Task, 8)
			for j := range tasks {
				tasks[j] = core.Task{Space: spaces[(i+j)%len(spaces)], Fn: func(cc *core.Ctx) { cc.Tick(1) }}
			}
			c.SpawnSB(tasks...)
		}
	})
	top := len(cfg.Levels)
	var placed int
	for lv := 1; lv <= top; lv++ {
		placed += s.PlacedAt(lv)
	}
	d.rep.set("core.placed_top_frac", float64(s.PlacedAt(top))/float64(max(placed, 1)), 1)
	prog("core.cgcsb_task_ns", "core.vsteps_cgcsb", 32*forks, func(c *core.Ctx) {
		for i := 0; i < forks; i++ {
			c.SpawnCGCSB(fjMinSpace, 32, func(cc *core.Ctx, _ int) { cc.Tick(1) })
		}
	})
	// 32 one-block elements per loop: one chunk per core.
	prog("core.pfor_chunk_ns", "core.vsteps_pfor", 32*forks, func(c *core.Ctx) {
		for i := 0; i < forks; i++ {
			c.PFor(32, 8, func(cc *core.Ctx, lo, hi int) { cc.Tick(int64(hi - lo)) })
		}
	})
}

// algo times the kernels on the native executor, so neither the engine
// nor the cache model is involved.
func (d *drivers) algo() {
	sp := d.tr.begin("driver.algo", 0)
	defer d.tr.end(sp)
	ds := d.sizes.drv
	rng := rand.New(rand.NewSource(d.seed))
	var s *core.Session
	native := func(name string, prep func(), root func(*core.Ctx), verify func() error) {
		var err error
		t := d.medianOf(func() { s = core.NewNative(1); prep() }, func() { _, err = s.TryRun(0, root) })
		if err == nil {
			err = verify()
		}
		d.check(name, err)
		d.rep.set(name, ms(t), ds.reps)
	}

	in := fftInput(d.seed, ds.nativeFFT)
	ref := referenceFFT(in)
	var x core.C128
	native("algo.fft_native_ms", func() {
		x = s.NewC128(len(in))
		for i, v := range in {
			s.PokeC(x, i, v)
		}
	}, func(c *core.Ctx) { fft.MOFFT(c, x) }, func() error { return compareFFT(peekC(s, x, d.corrupt), ref) })

	keys := make([]uint64, ds.nativeSort)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	var v core.Pairs
	native("algo.sort_native_ms", func() {
		v = s.NewPairs(len(keys))
		for i, k := range keys {
			s.PokeP(v, i, core.Pair{Key: k, Val: uint64(i)})
		}
	}, func(c *core.Ctx) { spms.Sort(c, v) }, func() error {
		got := make([]uint64, len(keys))
		for i := range got {
			got[i] = s.PeekP(v, i).Key
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		return equalOr(got, want, "sorted keys")
	})

	side := ds.nativeMM
	av, bv := randFloats(rng, side*side), randFloats(rng, side*side)
	var A, B, C core.Mat
	native("algo.mm_native_ms", func() {
		A, B, C = s.NewMat(side, side), s.NewMat(side, side), s.NewMat(side, side)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				s.PokeM(A, i, j, av[i*side+j])
				s.PokeM(B, i, j, bv[i*side+j])
			}
		}
	}, func(c *core.Ctx) { gep.MatMul(c, C, A, B) }, func() error {
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				var want float64
				for k := 0; k < side; k++ {
					want += av[i*side+k] * bv[k*side+j]
				}
				if got := s.PeekM(C, i, j); math.Abs(got-want) > 1e-9*float64(side) {
					return fmt.Errorf("C[%d][%d] = %g, want %g", i, j, got, want)
				}
			}
		}
		return nil
	})

	perm := rng.Perm(ds.nativeLR)
	var l listrank.List
	var rank core.I64
	native("algo.lr_native_ms", func() {
		l = listrank.FromPerm(s, perm)
		rank = s.NewI64(len(perm))
	}, func(c *core.Ctx) { listrank.MOLR(c, l, rank) }, func() error {
		got, want := make([]uint64, len(perm)), make([]uint64, len(perm))
		for i, node := range perm {
			got[i], want[i] = uint64(s.PeekI(rank, node)), uint64(len(perm)-1-i)
		}
		return equalOr(got, want, "list ranks")
	})

	vals := make([]int64, ds.nativeScan)
	for i := range vals {
		vals[i] = int64(rng.Intn(1 << 20))
	}
	var sv core.I64
	native("algo.scan_native_ms", func() {
		sv = s.NewI64(len(vals))
		for i, x := range vals {
			s.PokeI(sv, i, x)
		}
	}, func(c *core.Ctx) { scan.PrefixSumsI64(c, sv) }, func() error {
		got, want := make([]uint64, len(vals)), make([]uint64, len(vals))
		var acc int64
		for i, x := range vals {
			acc += x
			got[i], want[i] = uint64(s.PeekI(sv, i)), uint64(acc)
		}
		return equalOr(got, want, "prefix sums")
	})
}

func randFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

func equalOr(got, want []uint64, what string) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s differ at %d: %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// tables drives harness, sweep and the NO simulator on the tables grid:
// every MO cell serially through harness.Run, the same grid through
// sweep.Collect, and every NO row through harness.RunNO.
func (d *drivers) tables() {
	sh := d.sizes.tables
	texts := sh.specTexts()
	var specs []*sweep.Spec
	expand := func() {
		specs = specs[:0]
		for _, text := range texts {
			spec, err := sweep.Parse([]byte(text))
			if err != nil {
				panic(err) // the grid is the benchmark's own
			}
			sweep.Expand(spec)
			specs = append(specs, spec)
		}
	}
	d.rep.set("sweep.expand_ms", ms(d.medianOf(nil, expand)), d.sizes.drv.reps)

	sp := d.tr.begin("driver.harness", 0)
	rowMS := map[string][]float64{}
	var serial time.Duration
	var want []string
	for _, spec := range specs {
		for _, c := range sweep.Expand(spec) {
			id := d.tr.begin("row", sp)
			start := time.Now()
			res, err := harness.Run(harness.RunConfig{Algo: c.Algo, Machine: c.Machine, N: c.N, Options: c.Options, Seed: c.Seed})
			t := time.Since(start)
			d.tr.end(id)
			serial += t
			if c.Options == "default" {
				rowMS[c.Algo] = append(rowMS[c.Algo], ms(t))
			}
			d.check("harness row "+c.Key(), err)
			want = append(want, moOutcome(sweep.Row{Config: c, Steps: res.Steps, PlacedAt: res.PlacedAt, Levels: res.Levels, Steals: res.Steals}, false).tuple)
		}
	}
	d.tr.end(sp)
	for _, a := range moAlgos {
		d.rep.set("harness.row_ms."+a, mean(rowMS[a]), len(rowMS[a]))
	}

	sp = d.tr.begin("driver.sweep.collect", 0)
	start := time.Now()
	var got []string
	for _, spec := range specs {
		rows, err := sweep.Collect(spec, tablesWorkers)
		d.check("sweep collect", err)
		for _, r := range rows {
			got = append(got, moOutcome(r, d.corrupt && len(got) == 0).tuple)
		}
	}
	collect := time.Since(start)
	d.tr.end(sp)
	d.check("sweep rows match serial harness rows", equalStrings(got, want))
	d.rep.set("sweep.collect_s", collect.Seconds(), 1)
	d.rep.set("sweep.busy_frac", serial.Seconds()/(tablesWorkers*collect.Seconds()), 1)

	sp = d.tr.begin("driver.no", 0)
	noMS := map[string][]float64{}
	var comm, steps int64
	for _, c := range sh.noCases() {
		id := d.tr.begin("no_row", sp)
		start := time.Now()
		res, err := harness.RunNO(c.algo, c.n, c.p, c.b)
		noMS[c.algo] = append(noMS[c.algo], ms(time.Since(start)))
		d.tr.end(id)
		d.check(fmt.Sprintf("no row %s n=%d p=%d b=%d", c.algo, c.n, c.p, c.b), err)
		comm += res.Comm
		steps += int64(res.Supersteps)
	}
	d.tr.end(sp)
	for _, a := range noAlgos {
		d.rep.set("no.row_ms."+a, mean(noMS[a]), len(noMS[a]))
	}
	d.rep.set("no.comm", float64(comm), 1)
	d.rep.set("no.supersteps", float64(steps), 1)
}

func equalStrings(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("row %d: %s, want %s", i, got[i], want[i])
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}
