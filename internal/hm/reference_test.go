package hm

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file holds a naive model of the HM machine — one slice per set in
// MRU-first order, and on every write a full scan that invalidates the
// block in every off-path cache with no holder filter — and checks the
// real machine against it op by op.

// refCache is exact set-associative LRU kept as plain slices.
type refCache struct {
	block int64
	ways  int64
	sets  [][]refLine // sets[s][0] is the MRU line
	stats CacheStats

	// changed records that the resident set moved since the last matches,
	// which then compares every block; a hit only reorders the set.
	changed bool

	// evicted and invalidated count over the whole stream, across resets,
	// so a test can tell that its stream reached the paths it means to pin.
	evicted, invalidated int64
}

type refLine struct {
	b     int64
	dirty bool
}

func newRefCache(capBlocks, block int64, ways int) *refCache {
	w := int64(ways)
	if w <= 0 || w > capBlocks {
		w = capBlocks
	}
	return &refCache{block: block, ways: w, sets: make([][]refLine, capBlocks/w)}
}

func (r *refCache) set(b int64) int64 { return b % int64(len(r.sets)) }

// access mirrors Cache.access: true on hit, install and evict on miss.
func (r *refCache) access(b int64, write bool) bool {
	s := r.set(b)
	lines := r.sets[s]
	for i, l := range lines {
		if l.b == b {
			l.dirty = l.dirty || write
			copy(lines[1:i+1], lines[:i])
			lines[0] = l
			r.stats.Hits++
			return true
		}
	}
	r.stats.Misses++
	r.changed = true
	if int64(len(lines)) == r.ways {
		victim := lines[len(lines)-1]
		lines = lines[:len(lines)-1]
		r.stats.Evictions++
		r.evicted++
		if victim.dirty {
			r.stats.Writebacks++
		}
	}
	lines = append(lines, refLine{})
	copy(lines[1:], lines)
	lines[0] = refLine{b: b, dirty: write}
	r.sets[s] = lines
	return false
}

// invalidate mirrors Cache.invalidate.
func (r *refCache) invalidate(b int64) {
	s := r.set(b)
	for i, l := range r.sets[s] {
		if l.b == b {
			r.stats.Invalidations++
			r.invalidated++
			r.changed = true
			if l.dirty {
				r.stats.Writebacks++
			}
			r.sets[s] = append(r.sets[s][:i], r.sets[s][i+1:]...)
			return
		}
	}
}

func (r *refCache) flush() {
	for s := range r.sets {
		r.sets[s] = nil
	}
	r.changed = true
}

func (r *refCache) resident() int64 {
	n := 0
	for _, lines := range r.sets {
		n += len(lines)
	}
	return int64(n)
}

// matches reports the first difference between c and r: traffic counters,
// resident count, then — if the resident set moved — every resident block.
func (r *refCache) matches(c *Cache) error {
	if c.Stats != r.stats {
		return fmt.Errorf("stats %+v, reference %+v", c.Stats, r.stats)
	}
	if c.Resident() != r.resident() {
		return fmt.Errorf("%d blocks resident, reference %d", c.Resident(), r.resident())
	}
	if !r.changed {
		return nil
	}
	r.changed = false
	for _, lines := range r.sets {
		for _, l := range lines {
			if !c.Contains(l.b) {
				return fmt.Errorf("block %d missing, reference holds it", l.b)
			}
		}
	}
	return nil
}

// refMachine is the naive machine: the same cache tree built from refCaches.
type refMachine struct {
	cfg     Config
	byLevel [][]*refCache
	mem     map[Addr]uint64
}

func newRefMachine(m *Machine) *refMachine {
	r := &refMachine{cfg: m.Cfg, mem: map[Addr]uint64{}}
	for _, level := range m.ByLevel {
		var rl []*refCache
		for _, c := range level {
			rl = append(rl, newRefCache(c.Cap, c.Block, c.Ways))
		}
		r.byLevel = append(r.byLevel, rl)
	}
	return r
}

// access walks core's path up to the first hit; a coherent write then
// invalidates the block in every cache off that path.
func (r *refMachine) access(core int, a Addr, write bool) {
	for i, level := range r.byLevel {
		c := level[core/r.cfg.CoresUnder(i+1)]
		if c.access(int64(a)/c.block, write) {
			break
		}
	}
	if !write || !r.cfg.Coherence {
		return
	}
	for i, level := range r.byLevel {
		for j, c := range level {
			if j != core/r.cfg.CoresUnder(i+1) {
				c.invalidate(int64(a) / c.block)
			}
		}
	}
}

// machineOp is one step of a generated op stream.
type machineOp struct {
	kind         opKind
	core         int
	addr         Addr
	val          uint64
	level, index int // for opFault
}

type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opFlush
	opFault
	opReset
)

// applyOp runs op on both machines and fails on the first difference.
// base is the start of the allocated region every address is relative to.
func applyOp(t testing.TB, step int, m *Machine, r *refMachine, base Addr, op machineOp) {
	t.Helper()
	a := base + op.addr
	switch op.kind {
	case opLoad:
		r.access(op.core, a, false)
		if got := m.Load(op.core, a); got != r.mem[a] {
			t.Fatalf("step %d: core %d load %d = %d, reference %d", step, op.core, a, got, r.mem[a])
		}
	case opStore:
		r.access(op.core, a, true)
		r.mem[a] = op.val
		m.Store(op.core, a, op.val)
	case opFlush:
		m.FlushCaches()
		for _, level := range r.byLevel {
			for _, c := range level {
				c.flush()
				c.stats = CacheStats{}
			}
		}
	case opFault:
		r.byLevel[op.level-1][op.index].flush()
		m.InjectCacheFault(op.level, op.index)
	case opReset:
		m.ResetStats()
		for _, level := range r.byLevel {
			for _, c := range level {
				c.stats = CacheStats{}
			}
		}
	}
	for i, level := range m.ByLevel {
		for j, c := range level {
			if err := r.byLevel[i][j].matches(c); err != nil {
				t.Fatalf("step %d (%+v): L%d cache %d: %v", step, op, i+1, j, err)
			}
		}
	}
}

// randomOps draws a seeded op stream over a region of words words.  Two
// fifths of the accesses hit a hot range two L1s wide that every core
// shares, so writes keep invalidating each other's copies.  The rest
// advance a per-core cursor through the region one level-2 block at a
// time, which drives evictions at L1, L2 and, on small machines, the top.
func randomOps(rng *rand.Rand, cfg Config, words int64, n int) []machineOp {
	hot := 2 * cfg.Levels[0].Capacity
	stride := cfg.Levels[1].Block
	caches := 0
	for i := range cfg.Levels {
		caches += cfg.CachesAt(i + 1)
	}
	cursor := make([]int64, cfg.Cores())
	for c := range cursor {
		cursor[c] = rng.Int63n(words)
	}
	ops := make([]machineOp, n)
	for k := range ops {
		op := machineOp{core: rng.Intn(cfg.Cores())}
		switch x := rng.Intn(8000); {
		case x < 1:
			op.kind = opFlush
		case x < 9:
			// A uniformly drawn cache, so the few big upper caches are
			// rarely faulted and get the time to fill.
			op.kind = opFault
			j := rng.Intn(caches)
			for op.level = 1; j >= cfg.CachesAt(op.level); op.level++ {
				j -= cfg.CachesAt(op.level)
			}
			op.index = j
		case x < 25:
			op.kind = opReset
		case x < 4000:
			op.kind = opLoad
		default:
			op.kind = opStore
			op.val = rng.Uint64()
		}
		if rng.Intn(5) < 2 {
			op.addr = Addr(rng.Int63n(hot))
		} else {
			c := op.core
			cursor[c] = (cursor[c] + stride) % words
			op.addr = Addr(cursor[c])
		}
		ops[k] = op
	}
	return ops
}

// referenceConfigs are the machines checked against the naive model: every
// preset, plus a three-level, eight-core machine small enough that random
// streams evict at every level, the top included.
func referenceConfigs() []Config {
	p := Presets()
	tiny := Config{
		Name: "tiny",
		Levels: []LevelSpec{
			{Capacity: 1 << 4, Block: 1 << 2, Arity: 1},
			{Capacity: 1 << 6, Block: 1 << 3, Arity: 2},
			{Capacity: 1 << 8, Block: 1 << 3, Arity: 4, Ways: 4},
		},
		Coherence: true,
	}
	return []Config{p["seq"], p["mc3"], p["mc3a"], p["hm4"], p["hm5"], tiny}
}

// TestMachineMatchesReference runs seeded multi-core Load/Store streams,
// with FlushCaches, InjectCacheFault and ResetStats mixed in, on every
// machine of referenceConfigs, and after every op requires each cache's
// Stats and resident blocks to equal the naive model's.  It pins both the
// linked-list LRU and the exclusive-write mark that lets a store skip the
// off-path invalidation scan.
func TestMachineMatchesReference(t *testing.T) {
	for _, cfg := range referenceConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				m := MustMachine(cfg)
				r := newRefMachine(m)
				// The region spans twice the combined level-2 capacity, so
				// L1 and L2 evict; the top evicts on the tiny machine.
				words := 2 * int64(cfg.CachesAt(2)) * cfg.Levels[1].Capacity
				base := m.Alloc(words)
				rng := rand.New(rand.NewSource(seed))
				skipped := 0
				for k, op := range randomOps(rng, cfg, words, 16000) {
					if op.kind == opStore && exclHit(m, op.core, base+op.addr) {
						skipped++
					}
					applyOp(t, k, m, r, base, op)
				}
				if skipped == 0 && cfg.Coherence {
					t.Errorf("seed %d: no store hit a marked L1 slot", seed)
				}
				for i, level := range r.byLevel {
					var evicted, invalidated int64
					for _, c := range level {
						evicted += c.evicted
						invalidated += c.invalidated
					}
					if evicted == 0 && (i < 2 || cfg.Name == "tiny") {
						t.Errorf("seed %d: no L%d eviction", seed, i+1)
					}
					if invalidated == 0 && i == 0 && cfg.Coherence {
						t.Errorf("seed %d: no L1 invalidation", seed)
					}
				}
			}
		})
	}
}

// exclHit reports whether a write by core to a hits a marked L1 slot, the
// case where the store skips the off-path scan.
func exclHit(m *Machine, core int, a Addr) bool {
	c := m.path[core][0]
	if !c.inited {
		return false
	}
	s := c.lookup(int64(a) >> m.shift[0])
	return s != nilSlot && c.slots[s].excl
}

// decodeOps turns fuzz bytes into an op stream on one of referenceConfigs:
// the first byte picks the machine, then every three bytes are one op
// (kind, core, address).
func decodeOps(data []byte) (Config, int64, []machineOp) {
	cfgs := referenceConfigs()
	if len(data) == 0 {
		return cfgs[0], 1, nil
	}
	cfg := cfgs[int(data[0])%len(cfgs)]
	data = data[1:]
	// A region of four L1s keeps sharing heavy and still evicts L1s.
	words := 4 * cfg.Levels[0].Capacity
	var ops []machineOp
	for len(data) >= 3 {
		k, c, x := data[0], data[1], data[2]
		data = data[3:]
		op := machineOp{core: int(c) % cfg.Cores(), addr: Addr(int64(x) * words / 256), val: uint64(x)}
		switch {
		case k < 120:
			op.kind = opLoad
		case k < 240:
			op.kind = opStore
		case k < 246:
			op.kind = opFault
			op.level = 1 + int(c)%len(cfg.Levels)
			op.index = int(x) % cfg.CachesAt(op.level)
		case k < 251:
			op.kind = opReset
		default:
			op.kind = opFlush
		}
		ops = append(ops, op)
	}
	return cfg, words, ops
}

// FuzzMachine checks byte-decoded op streams against the naive model, the
// oracle of TestMachineMatchesReference.
func FuzzMachine(f *testing.F) {
	f.Add([]byte{3, 200, 0, 0, 200, 1, 0, 10, 0, 0})
	f.Add([]byte{4, 130, 5, 17, 130, 6, 17, 243, 1, 0, 10, 5, 17})
	f.Add([]byte{5, 150, 0, 1, 150, 7, 1, 20, 3, 1, 252, 0, 0, 150, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, words, ops := decodeOps(data)
		m := MustMachine(cfg)
		r := newRefMachine(m)
		base := m.Alloc(words)
		for k, op := range ops {
			applyOp(t, k, m, r, base, op)
		}
	})
}
