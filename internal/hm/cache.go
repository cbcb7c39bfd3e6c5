package hm

// This file holds one cache of the hierarchy: exact LRU over a
// slot-indexed doubly linked list per set, with a dense block->slot index.
// Every operation is O(1): a hit moves its slot to the set's head (or
// returns at once when it is already there), a miss takes a free slot or
// the list tail.  Each slot also carries the exclusive-write mark that the
// machine's coherence layer keeps on L1 copies (machine.go).

// Cache is one cache in the hierarchy.  The HM model does not constrain
// associativity and the cache-oblivious literature assumes ideal (fully
// associative LRU) caches; that is the default here (Ways = 0).  A positive
// Ways value makes the cache set-associative with LRU within each set — an
// extension knob for studying how far the ideal-cache assumption carries
// (see the associativity tests and the ablation benchmarks).
//
// Cache state is a set of resident block ids; block id b at a level with
// block size B covers word addresses [b*B, (b+1)*B).  Recency is one
// linked list per set, for every geometry.  A slot's excl flag is the
// exclusive-write mark: on an L1 copy it records that no cache off the
// owning core's path has gained a copy of the block since that core's last
// write cleared them all, so the next write can skip the coherence scan
// (see Machine.access for the invariant).
type Cache struct {
	Level int // 1-based cache level
	Index int // index among the q_i caches of this level, left to right
	Block int64
	Cap   int64 // capacity in blocks
	Ways  int   // 0 = fully associative; else blocks per set

	parent *Cache // nil at the topmost cache level
	// CoreLo/CoreHi delimit the contiguous range of cores in this cache's
	// shadow: cores [CoreLo, CoreHi).
	CoreLo, CoreHi int

	Stats CacheStats

	// LRU bookkeeping: slot-indexed doubly linked lists (one per set) plus
	// a block->slot index.  Set s owns slots [s*ways, (s+1)*ways).  The
	// index is a dense slice keyed by block id (block ids are bounded by
	// heap/Block, so it stays small) — this is the simulator's hottest
	// lookup and a map here dominated whole-run profiles.
	slots   []slot
	index   []int32 // block id -> slot, nilSlot when absent
	head    []int32 // per-set most recently used
	tail    []int32 // per-set least recently used
	free    []int32 // per-set free-slot list head, chained through next
	nsets   int64
	setMask int64 // nsets-1 when nsets is a power of two, else -1
	ways    int64

	resident int64 // blocks currently held
	inited   bool
}

// slot is one resident block.  dirty and excl share the padding after the
// links, so a slot stays 24 bytes.
type slot struct {
	block      int64
	prev, next int32
	dirty      bool
	excl       bool // exclusive-write mark, kept on L1 copies only
}

// CacheStats counts block traffic at a single cache.
type CacheStats struct {
	Hits          int64
	Misses        int64 // block transfers into the cache
	Evictions     int64
	Writebacks    int64 // dirty block transfers out
	Invalidations int64 // coherence invalidations received (ping-ponging)
}

// Transfers returns block transfers into and out of the cache, the quantity
// the paper's cache complexity bounds.
func (s CacheStats) Transfers() int64 { return s.Misses + s.Writebacks }

const nilSlot = int32(-1)

func (c *Cache) init() {
	c.ways = int64(c.Ways)
	if c.ways <= 0 || c.ways > c.Cap {
		c.ways = c.Cap
	}
	c.nsets = c.Cap / c.ways
	c.setMask = -1
	if c.nsets&(c.nsets-1) == 0 {
		c.setMask = c.nsets - 1
	}
	// Arrays are retained across Flush (see there) and reused when the
	// geometry is unchanged, so repeated cold runs allocate nothing: the
	// grown index keeps its final size and is re-filled with nilSlot.
	if int64(len(c.slots)) != c.Cap {
		c.slots = make([]slot, c.Cap)
	}
	for i := range c.index {
		c.index[i] = nilSlot
	}
	if int64(len(c.head)) != c.nsets {
		c.head = make([]int32, c.nsets)
		c.tail = make([]int32, c.nsets)
		c.free = make([]int32, c.nsets)
	}
	for s := int64(0); s < c.nsets; s++ {
		lo, hi := s*c.ways, (s+1)*c.ways
		for i := lo; i < hi; i++ {
			c.slots[i].prev = nilSlot
			c.slots[i].next = int32(i) + 1
		}
		c.slots[hi-1].next = nilSlot
		c.free[s] = int32(lo)
		c.head[s], c.tail[s] = nilSlot, nilSlot
	}
	c.resident = 0
	c.inited = true
}

// setOf maps a block id to its set.
func (c *Cache) setOf(b int64) int64 {
	if c.setMask >= 0 {
		return b & c.setMask
	}
	return b % c.nsets
}

// lookup returns the slot holding block b, or nilSlot.
func (c *Cache) lookup(b int64) int32 {
	if b >= int64(len(c.index)) {
		return nilSlot
	}
	return c.index[b]
}

// setIndex records block b in slot s, growing the dense index on demand.
func (c *Cache) setIndex(b int64, s int32) {
	if b >= int64(len(c.index)) {
		c.index = grow(c.index, b, nilSlot)
	}
	c.index[b] = s
}

// Contains reports whether block b is resident (no LRU update, no counters).
func (c *Cache) Contains(b int64) bool {
	if !c.inited {
		return false
	}
	return c.lookup(b) != nilSlot
}

// Resident returns the number of blocks currently held (always <= Cap).
func (c *Cache) Resident() int64 { return c.resident }

// Parent returns the next cache up on this cache's path to memory, or nil at
// the topmost level.  The failure-recovery layer (core.WithFailures) walks
// this chain to find a surviving core when a whole cache shadow is dead.
func (c *Cache) Parent() *Cache { return c.parent }

// touch moves an already-resident slot to its set's MRU position.
func (c *Cache) touch(set int64, s int32) {
	if c.head[set] == s {
		return
	}
	sl := &c.slots[s]
	if sl.prev != nilSlot {
		c.slots[sl.prev].next = sl.next
	}
	if sl.next != nilSlot {
		c.slots[sl.next].prev = sl.prev
	}
	if c.tail[set] == s {
		c.tail[set] = sl.prev
	}
	sl.prev = nilSlot
	sl.next = c.head[set]
	if c.head[set] != nilSlot {
		c.slots[c.head[set]].prev = s
	}
	c.head[set] = s
	if c.tail[set] == nilSlot {
		c.tail[set] = s
	}
}

// access looks up block b, updating LRU order and hit/miss counters.  On a
// miss the block is installed, evicting its set's LRU block if necessary
// (counting a writeback if it was dirty).  write marks the block dirty.
// Returns true on hit.
func (c *Cache) access(b int64, write bool) bool {
	if !c.inited {
		c.init()
	}
	if s := c.lookup(b); s != nilSlot {
		c.Stats.Hits++
		c.touch(c.setOf(b), s)
		if write {
			c.slots[s].dirty = true
		}
		return true
	}
	c.Stats.Misses++
	c.install(b, write)
	return false
}

// install places block b at its set's MRU position, evicting if full.
func (c *Cache) install(b int64, dirty bool) {
	if !c.inited {
		c.init()
	}
	set := c.setOf(b)
	var s int32
	if c.free[set] != nilSlot {
		s = c.free[set]
		c.free[set] = c.slots[s].next
		c.resident++
	} else {
		// Evict the set's LRU: the list tail.
		s = c.tail[set]
		victim := &c.slots[s]
		c.Stats.Evictions++
		if victim.dirty {
			c.Stats.Writebacks++
		}
		c.index[victim.block] = nilSlot
		c.tail[set] = victim.prev
		if c.tail[set] != nilSlot {
			c.slots[c.tail[set]].next = nilSlot
		} else {
			c.head[set] = nilSlot
		}
	}
	// A fresh slot: excl starts false.
	c.slots[s] = slot{block: b, prev: nilSlot, next: c.head[set], dirty: dirty}
	if c.head[set] != nilSlot {
		c.slots[c.head[set]].prev = s
	}
	c.head[set] = s
	if c.tail[set] == nilSlot {
		c.tail[set] = s
	}
	c.setIndex(b, s)
}

// invalidate removes block b if resident, counting an invalidation.  A dirty
// victim counts a writeback (its data must move before another core's copy
// becomes authoritative).
func (c *Cache) invalidate(b int64) {
	if !c.inited {
		return
	}
	s := c.lookup(b)
	if s == nilSlot {
		return
	}
	set := c.setOf(b)
	c.Stats.Invalidations++
	sl := &c.slots[s]
	if sl.dirty {
		c.Stats.Writebacks++
	}
	c.index[b] = nilSlot
	if sl.prev != nilSlot {
		c.slots[sl.prev].next = sl.next
	} else {
		c.head[set] = sl.next
	}
	if sl.next != nilSlot {
		c.slots[sl.next].prev = sl.prev
	} else {
		c.tail[set] = sl.prev
	}
	sl.next = c.free[set]
	sl.prev = nilSlot
	c.free[set] = s
	c.resident--
}

// Flush empties the cache without counting traffic (used between runs).
// The backing arrays are kept and recycled by the next init, so a flush
// costs O(1) and repeated cold runs are allocation-free.
func (c *Cache) Flush() {
	c.inited = false
	c.resident = 0
}

// ResetStats zeroes the traffic counters, keeping contents.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }

// grow returns s extended to cover index i: at least doubled, never below
// 1024 entries, with every new entry set to fill.  It backs the dense
// block-id-keyed slices (the cache index and the machine's holder masks).
func grow[T any](s []T, i int64, fill T) []T {
	n := int64(len(s)) * 2
	if n < i+1 {
		n = i + 1
	}
	if n < 1024 {
		n = 1024
	}
	grown := make([]T, n)
	copy(grown, s)
	for j := len(s); j < len(grown); j++ {
		grown[j] = fill
	}
	return grown
}
