package hm

import "testing"

// BenchmarkL1EvictChurn cycles one core's loads through a working set one
// block larger than an hm4 L1, so under LRU every load misses L1, evicts
// its least recently used block and hits L2.  One op is one Load.
func BenchmarkL1EvictChurn(b *testing.B) {
	m := MustMachine(HM4(4, 4))
	b1 := m.Cfg.Levels[0].Block
	blocks := m.Cfg.Levels[0].Capacity/b1 + 1
	base := m.Alloc(blocks * b1)
	for i := int64(0); i < blocks; i++ {
		m.Load(0, base+Addr(i*b1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0, base+Addr(int64(i)%blocks*b1))
	}
}

// BenchmarkStoreHitCoherent repeats one core's stores to blocks it already
// owns on hm4: each store hits L1 and no other cache holds a copy, so the
// coherence work per store is pure overhead.  One op is one Store.
func BenchmarkStoreHitCoherent(b *testing.B) {
	m := MustMachine(HM4(4, 4))
	b1 := m.Cfg.Levels[0].Block
	const blocks = 32 // half an L1
	base := m.Alloc(blocks * b1)
	for i := int64(0); i < blocks; i++ {
		m.Store(0, base+Addr(i*b1), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(0, base+Addr(int64(i)%blocks*b1), uint64(i))
	}
}
