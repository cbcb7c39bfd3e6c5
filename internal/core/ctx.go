package core

import (
	"math"
	"sync"

	"oblivhm/internal/hm"
)

// Ctx is the multicore-oblivious execution context handed to algorithm
// code.  It exposes exactly two things: word-granular memory access, and the
// paper's three scheduler hints (PFor = CGC, SpawnSB = SB, SpawnCGCSB =
// CGC⇒SB).  No machine parameter is reachable through it, which is the
// obliviousness boundary of the whole system.
type Ctx struct {
	s      *Session
	core   int
	anchor *hm.Cache // nil in native mode
	st     *strand   // nil in native mode
}

// ---- memory access ----

// LoadU loads the word at address a, charging one virtual operation.
func (c *Ctx) LoadU(a Addr) uint64 {
	if c.st != nil {
		c.st.charge(1)
		return c.s.mach.Load(c.core, a)
	}
	return c.s.nmem.load(a)
}

// StoreU stores v at address a, charging one virtual operation.
func (c *Ctx) StoreU(a Addr, v uint64) {
	if c.st != nil {
		c.st.charge(1)
		c.s.mach.Store(c.core, a, v)
		return
	}
	c.s.nmem.store(a, v)
}

// LoadF / StoreF are float64 views.
func (c *Ctx) LoadF(a Addr) float64     { return math.Float64frombits(c.LoadU(a)) }
func (c *Ctx) StoreF(a Addr, v float64) { c.StoreU(a, math.Float64bits(v)) }

// LoadI / StoreI are int64 views.
func (c *Ctx) LoadI(a Addr) int64     { return int64(c.LoadU(a)) }
func (c *Ctx) StoreI(a Addr, v int64) { c.StoreU(a, uint64(v)) }

// Tick charges n virtual operations of pure computation (no memory access).
func (c *Ctx) Tick(n int64) {
	if c.st != nil {
		c.st.charge(n)
	}
}

// ---- CGC: coarse-grained contiguous scheduling ----

// PFor is a parallel for loop over [0, n) scheduled with the CGC hint: the
// index range is decomposed into contiguous segments of near-equal length,
// segment boundaries respect level-1 block boundaries (each segment scans at
// least B_1 words, idling cores if necessary), and the j-th segment runs on
// the j-th core under the shadow of the calling task's anchor cache.
//
// elemWords is the size of one loop element in words, so the scheduler can
// convert the block constraint into index units; body receives a contiguous
// subrange [lo, hi).
func (c *Ctx) PFor(n, elemWords int, body func(cc *Ctx, lo, hi int)) {
	if n <= 0 {
		return
	}
	if elemWords <= 0 {
		elemWords = 1
	}
	if c.st == nil {
		c.nativePFor(n, body)
		return
	}
	e := c.s.eng
	lo, hi := c.anchor.CoreLo, c.anchor.CoreHi
	k := hi - lo
	b1 := c.s.mach.Cfg.Levels[0].Block
	grain := int(b1) / elemWords
	if grain < 1 {
		grain = 1
	}
	nchunks := (n + grain - 1) / grain
	if nchunks > k {
		nchunks = k
	}
	if nchunks <= 1 {
		body(c, 0, n)
		return
	}
	// Chunk size rounded up to a grain multiple so segment boundaries land
	// on B_1 block boundaries (arrays are B_1-aligned).
	cs := (n + nchunks - 1) / nchunks
	cs = (cs + grain - 1) / grain * grain
	jn := e.newJoin()
	myChunk := -1
	for j := 0; j*cs < n; j++ {
		clo, chi := j*cs, (j+1)*cs
		if chi > n {
			chi = n
		}
		target := lo + j
		if target == c.core {
			myChunk = j
			continue
		}
		c.st.charge(1)
		clo2, chi2 := clo, chi
		jn.pending++
		st := e.newStrand(target, e.m.CacheOf(target, 1), jn, func(cc *Ctx) { body(cc, clo2, chi2) }, "cgc-chunk")
		e.markRecov(st, c.st.recov)
		e.emit(EvChunk, st.core, 1, target, int64(chi2-clo2)*int64(elemWords))
		e.enqueue(st)
	}
	if myChunk >= 0 {
		clo, chi := myChunk*cs, (myChunk+1)*cs
		if chi > n {
			chi = n
		}
		body(c, clo, chi)
	}
	c.waitJoin(jn)
}

func (c *Ctx) nativePFor(n int, body func(cc *Ctx, lo, hi int)) {
	k := c.s.workers
	if k > n {
		k = n
	}
	if k <= 1 {
		body(c, 0, n)
		return
	}
	cs := (n + k - 1) / k
	var wg sync.WaitGroup
	for j := 0; j*cs < n; j++ {
		clo, chi := j*cs, (j+1)*cs
		if chi > n {
			chi = n
		}
		if !c.s.gov.tryAcquire() {
			body(c, clo, chi)
			continue
		}
		wg.Add(1)
		//oblivcheck:allow determinism: native-mode executor — real parallelism is the point; joined before return, failures funneled through noteNativeFailure
		go func(lo, hi int) {
			defer wg.Done()
			defer c.s.gov.release()
			defer func() {
				if r := recover(); r != nil {
					c.s.noteNativeFailure(r)
				}
			}()
			body(&Ctx{s: c.s}, lo, hi)
		}(clo, chi)
	}
	wg.Wait()
	c.s.rethrowNative()
}

// ---- SB: space-bound scheduling ----

// Task is a forked task with a declared space bound (the paper's s(τ), an
// upper bound in words on the task's working space).  Label is optional and
// only surfaces in failure diagnostics (RunError, deadlock forensics).
type Task struct {
	Space int64
	Fn    func(*Ctx)
	Label string
}

// SpawnSB forks the given tasks under the SB hint and waits for all of them.
// Each task τ' forked by a task anchored at a level-i cache λ is anchored at
// the least-loaded cache at the smallest level j <= i-1 with s(τ') <= C_j
// under the shadow of λ; tasks too big for level i-1 stay at λ.  A cache
// admits concurrently anchored tasks while their total space fits, queueing
// the rest in Q(λ).
func (c *Ctx) SpawnSB(tasks ...Task) {
	if len(tasks) == 0 {
		return
	}
	if c.st == nil {
		c.nativeSpawn(tasks)
		return
	}
	e := c.s.eng
	lam := c.anchor
	i := lam.Level
	if i == 1 || lam.CoreHi-lam.CoreLo == 1 {
		for _, t := range tasks {
			t.Fn(c)
		}
		return
	}
	// A single forked task that the scheduler would start right here runs
	// inline on the parent strand (same schedule, no strand round-trip).
	if len(tasks) == 1 && c.inlineSB(tasks[0]) {
		return
	}
	jn := e.newJoin()
	for _, t := range tasks {
		c.st.charge(1)
		e.forkSB(lam, jn, t, c.st.recov)
	}
	c.waitJoin(jn)
}

// ---- CGC⇒SB scheduling ----

// SpawnCGCSB forks m uniform subtasks, each with the same space bound, and
// waits for all of them.  Per the paper: with the parent anchored at λ, the
// scheduler finds the smallest level i with C_i >= space and the smallest
// level j with at most m level-j caches under the shadow of λ, and
// distributes the subtasks evenly and contiguously across the level-t caches
// under λ for t = max(i, j).
func (c *Ctx) SpawnCGCSB(space int64, m int, task func(cc *Ctx, idx int)) {
	if m <= 0 {
		return
	}
	if c.st == nil {
		tasks := make([]Task, m)
		for idx := 0; idx < m; idx++ {
			id := idx
			tasks[idx] = Task{Space: space, Fn: func(cc *Ctx) { task(cc, id) }}
		}
		c.nativeSpawn(tasks)
		return
	}
	e := c.s.eng
	lam := c.anchor
	if lam.CoreHi-lam.CoreLo == 1 || m == 1 {
		for idx := 0; idx < m; idx++ {
			task(c, idx)
		}
		return
	}
	t := 1
	i := 1
	if !e.flat {
		i = e.m.SmallestFit(space)
		if i > lam.Level {
			i = lam.Level
		}
		j := lam.Level
		for lv := 1; lv <= lam.Level; lv++ {
			if len(e.m.Under(lam, lv)) <= m {
				j = lv
				break
			}
		}
		t = i
		if j > t {
			t = j
		}
		if t > lam.Level {
			t = lam.Level
		}
	}
	jn := e.newJoin()
	if !e.flat && t > i && m < len(e.m.Under(lam, i)) && i < lam.Level {
		// Small fan-out (fewer subtasks than level-i caches): the paper's
		// even-contiguous distribution at level t would pin recursive binary
		// forks at λ forever.  This is the "generate a sufficient number of
		// tasks through recursive forking" case (§III-C): place the few
		// subtasks SB-style at the least-loaded level-i caches so the
		// recursion descends the hierarchy and later forks find enough
		// parallelism.
		for idx := 0; idx < m; idx++ {
			c.st.charge(1)
			id := idx
			fn := func(cc *Ctx) { task(cc, id) }
			e.forkAt(e.leastLoadedSlot(lam, i), pending{space: space, jn: jn, fn: fn, label: "cgc-sb", recov: c.st.recov})
		}
		c.waitJoin(jn)
		return
	}
	if t == lam.Level {
		// All subtasks stay at λ: round-robin its cores, nested in the
		// parent's reservation (see SpawnSB).
		for idx := 0; idx < m; idx++ {
			c.st.charge(1)
			id := idx
			fn := func(cc *Ctx) { task(cc, id) }
			core := lam.CoreLo + idx%(lam.CoreHi-lam.CoreLo)
			e.forkNested(lam, core, jn, fn, space, "cgc-sb", c.st.recov)
		}
		c.waitJoin(jn)
		return
	}
	targets := e.m.Under(lam, t)
	d := len(targets)
	for idx := 0; idx < m; idx++ {
		c.st.charge(1)
		id := idx
		fn := func(cc *Ctx) { task(cc, id) }
		slot := e.slotOf(targets[idx*d/m])
		e.forkAt(slot, pending{space: space, jn: jn, fn: fn, label: "cgc-sb", recov: c.st.recov})
	}
	c.waitJoin(jn)
}

func (c *Ctx) nativeSpawn(tasks []Task) {
	var wg sync.WaitGroup
	for i, t := range tasks {
		if i == len(tasks)-1 || !c.s.gov.tryAcquire() {
			t.Fn(c)
			continue
		}
		wg.Add(1)
		//oblivcheck:allow determinism: native-mode executor — real parallelism is the point; joined before return, failures funneled through noteNativeFailure
		go func(fn func(*Ctx)) {
			defer wg.Done()
			defer c.s.gov.release()
			defer func() {
				if r := recover(); r != nil {
					c.s.noteNativeFailure(r)
				}
			}()
			fn(&Ctx{s: c.s})
		}(t.Fn)
	}
	wg.Wait()
	c.s.rethrowNative()
}

// waitJoin parks the calling strand until all children of jn have finished.
func (c *Ctx) waitJoin(jn *join) {
	if jn.pending > 0 {
		jn.waiter = c.st
		// Record the join for failure recovery: a kill of this strand while
		// parked must orphan the join (killStrand), or its last child's
		// completion would resurrect the dead strand.
		c.st.waitingOn = jn
		c.st.suspend(yBlocked)
		c.st.waitingOn = nil
	}
	c.s.eng.putJoin(jn)
}

// Session returns the owning session (for allocation from inside a task).
func (c *Ctx) Session() *Session { return c.s }
