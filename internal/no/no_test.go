package no

import (
	"math/rand"
	"slices"
	"testing"
)

func TestMessageDelivery(t *testing.T) {
	w := NewWorld(8, 2, 4)
	w.Step(func(e *Env) {
		e.Send((e.PE()+1)%8, 7, uint64(e.PE()))
	})
	got := make([]uint64, 8)
	w.Step(func(e *Env) {
		for _, m := range e.Inbox() {
			if m.Tag != 7 {
				t.Errorf("tag %d", m.Tag)
			}
			got[e.PE()] = m.Data[0]
		}
	})
	for pe := 0; pe < 8; pe++ {
		want := uint64((pe + 7) % 8)
		if got[pe] != want {
			t.Fatalf("PE %d received %d, want %d", pe, got[pe], want)
		}
	}
}

func TestLocalMessagesAreFree(t *testing.T) {
	w := NewWorld(8, 2, 1)
	// PEs 0..3 on proc 0, 4..7 on proc 1; intra-proc sends cost nothing.
	w.Step(func(e *Env) {
		if e.PE() < 3 {
			e.Send(e.PE()+1, 0, 1)
		}
	})
	if w.Comm() != 0 {
		t.Fatalf("intra-processor traffic charged: %d", w.Comm())
	}
}

func TestBlockedCommAccounting(t *testing.T) {
	// 5 words from proc 0 to proc 1 with B=4 → 2 blocks.
	w := NewWorld(8, 2, 4)
	w.Step(func(e *Env) {
		if e.PE() == 0 {
			e.Send(4, 0, 1, 2, 3, 4, 5)
		}
	})
	if w.Comm() != 2 {
		t.Fatalf("comm = %d, want 2 blocks", w.Comm())
	}
}

func TestHRelationIsMaxOverProcs(t *testing.T) {
	// Proc 0 sends 1 block to proc 1 AND proc 2; proc 3 sends 1 to proc 0.
	// max(sent)=2 at proc 0 → h = 2.
	w := NewWorld(8, 4, 8)
	w.Step(func(e *Env) {
		switch e.PE() {
		case 0:
			e.Send(2, 0, 1)
			e.Send(4, 0, 1)
		case 6:
			e.Send(0, 0, 1)
		}
	})
	if w.Comm() != 2 {
		t.Fatalf("h = %d, want 2", w.Comm())
	}
}

func TestComputationIsMaxPerProc(t *testing.T) {
	w := NewWorld(4, 2, 1)
	w.Step(func(e *Env) {
		if e.PE() < 2 {
			e.Work(10) // both on proc 0: 20 total
		} else {
			e.Work(5)
		}
	})
	if w.Computation() != 20 {
		t.Fatalf("computation = %d, want 20", w.Computation())
	}
}

func TestDBSPClusterLevels(t *testing.T) {
	// P=4 → levels 0 (clusters of 4) and 1 (clusters of 2).
	g := []float64{10, 1}
	bs := []int64{1, 1}
	// Neighbour communication within 2-clusters: level 1, cost h·g1 = 1.
	w := NewWorld(8, 4, 1)
	w.Step(func(e *Env) {
		if e.PE() == 0 {
			e.Send(2, 0, 1) // proc 0 → proc 1: cluster {0,1} = level 1
		}
	})
	if got := w.DBSPTime(g, bs); got != 1 {
		t.Fatalf("near communication cost %v, want 1 (g1)", got)
	}
	// Far communication: proc 0 → proc 3 needs the full machine: level 0.
	w2 := NewWorld(8, 4, 1)
	w2.Step(func(e *Env) {
		if e.PE() == 0 {
			e.Send(6, 0, 1)
		}
	})
	if got := w2.DBSPTime(g, bs); got != 10 {
		t.Fatalf("far communication cost %v, want 10 (g0)", got)
	}
}

func TestSupersteps(t *testing.T) {
	w := NewWorld(4, 2, 1)
	for i := 0; i < 5; i++ {
		w.Step(func(e *Env) {})
	}
	if w.Supersteps() != 5 {
		t.Fatalf("supersteps = %d", w.Supersteps())
	}
}

func TestObliviousReexecution(t *testing.T) {
	// The same algorithm on different (p, B) gives identical results but
	// different communication counts — the essence of network-obliviousness.
	run := func(p, b int) (sum uint64, comm int64) {
		w := NewWorld(16, p, b)
		w.Step(func(e *Env) { e.Send(15-e.PE(), 0, uint64(e.PE())) })
		w.Step(func(e *Env) {
			for _, m := range e.Inbox() {
				if e.PE() == 0 {
					sum += m.Data[0]
				}
			}
		})
		return sum, w.Comm()
	}
	s1, c1 := run(2, 1)
	s2, c2 := run(8, 4)
	if s1 != s2 {
		t.Fatalf("results differ across machines: %d vs %d", s1, s2)
	}
	if c1 == c2 {
		t.Fatal("different (p,B) should cost differently for this pattern")
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	w := NewWorld(4, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range destination")
		}
	}()
	w.Step(func(e *Env) {
		if e.PE() == 0 {
			e.Send(99, 0, 1)
		}
	})
}

func TestNewWorldRejectsBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for p not dividing N")
		}
	}()
	NewWorld(10, 3, 1)
}

func TestDBSPRequiresPow2P(t *testing.T) {
	w := NewWorld(16, 4, 1)
	w.Step(func(e *Env) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for short g vector")
		}
	}()
	w.DBSPTime([]float64{1}, []int64{1}) // need log2(4)=2 entries
}

func TestEnvNAndProcOf(t *testing.T) {
	w := NewWorld(8, 4, 1)
	w.Step(func(e *Env) {
		if e.N() != 8 {
			t.Errorf("N() = %d", e.N())
		}
	})
	if w.ProcOf(0) != 0 || w.ProcOf(2) != 1 || w.ProcOf(7) != 3 {
		t.Error("ProcOf mapping wrong")
	}
}

func TestInboxOrderDeterministic(t *testing.T) {
	collect := func() []int {
		w := NewWorld(8, 2, 1)
		w.Step(func(e *Env) {
			e.Send(0, e.PE(), uint64(e.PE()))
		})
		var got []int
		w.Step(func(e *Env) {
			if e.PE() == 0 {
				for _, m := range e.Inbox() {
					got = append(got, m.Src)
				}
			}
		})
		return got
	}
	a, b := collect(), collect()
	if len(a) != 8 {
		t.Fatalf("received %d messages", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("inbox order differs between identical runs")
		}
	}
}

// TestInboxSurvivesSends: a PE that sends during a superstep still reads
// its inbox payload intact — the outbox arena the sends fill never
// aliases the inbox arena, however much it grows.
func TestInboxSurvivesSends(t *testing.T) {
	const n = 8
	w := NewWorld(n, 2, 2)
	// ring is what src sends at step; it differs from step to step, so a
	// payload overwritten by a later superstep's send shows.
	ring := func(src, step int) []uint64 {
		return []uint64{uint64(1000*step + src), uint64(1000*step + src + 100), uint64(1000*step + src + 200)}
	}
	bulk := make([]uint64, 64)
	for i := range bulk {
		bulk[i] = ^uint64(i)
	}
	for step := 0; step < 4; step++ {
		w.Step(func(e *Env) {
			in := e.Inbox()
			// Send far more words than the inbox holds, then read it.
			e.Send((e.PE()+1)%n, 1, ring(e.PE(), step)...)
			for k := 0; k < 4; k++ {
				e.Send((e.PE()+3)%n, 2, bulk...)
			}
			if step == 0 {
				return
			}
			src := (e.PE() + n - 1) % n
			got := 0
			for _, m := range in {
				if m.Tag != 1 {
					continue
				}
				got++
				if want := ring(src, step-1); m.Src != src || !slices.Equal(m.Data, want) {
					t.Fatalf("step %d PE %d: ring message %+v, want %v from %d", step, e.PE(), m, want, src)
				}
			}
			if got != 1 {
				t.Fatalf("step %d PE %d: %d ring messages, want 1", step, e.PE(), got)
			}
		})
	}
}

// naiveWorld recomputes a World's accounts the straightforward way: one
// map of cross-processor words per superstep.
type naiveWorld struct {
	n, p, b int
	steps   []map[int]int64
	comm    int64
	comp    int64
}

func (nw *naiveWorld) procOf(pe int) int { return pe / (nw.n / nw.p) }

func naiveH(pairs map[int]int64, p int, b int64) int64 {
	sent := make([]int64, p)
	recv := make([]int64, p)
	for key, words := range pairs {
		blocks := (words + b - 1) / b
		sent[key/p] += blocks
		recv[key%p] += blocks
	}
	h := int64(0)
	for i := 0; i < p; i++ {
		h = max(h, sent[i], recv[i])
	}
	return h
}

// step accounts one superstep; sends[pe] lists (dst, words) per message.
func (nw *naiveWorld) step(sends [][][2]int, work []int64) {
	pairs := map[int]int64{}
	load := make([]int64, nw.p)
	for pe, ms := range sends {
		load[nw.procOf(pe)] += work[pe]
		for _, m := range ms {
			sp, dp := nw.procOf(pe), nw.procOf(m[0])
			load[sp] += int64(m[1])
			load[dp] += int64(m[1])
			if sp != dp {
				pairs[sp*nw.p+dp] += int64(m[1])
			}
		}
	}
	nw.steps = append(nw.steps, pairs)
	nw.comm += naiveH(pairs, nw.p, int64(nw.b))
	maxLoad := int64(0)
	for _, l := range load {
		maxLoad = max(maxLoad, l)
	}
	nw.comp += maxLoad
}

func (nw *naiveWorld) dbsp(g []float64, bs []int64) float64 {
	logP := len(g)
	total := 0.0
	for _, pairs := range nw.steps {
		if len(pairs) == 0 {
			continue
		}
		k := 0
		for key := range pairs {
			for (key/nw.p)>>k != (key%nw.p)>>k {
				k++
			}
		}
		total += float64(naiveH(pairs, nw.p, bs[logP-k])) * g[logP-k]
	}
	return total
}

// TestAccountsMatchNaive drives random traffic — intra-processor,
// zero-word and multi-message — through a World and checks Comm,
// Computation, Supersteps, message delivery and DBSPTime (uniform and
// per-level block sizes) against the map-based recomputation.
func TestAccountsMatchNaive(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		logN := 2 + rng.Intn(4)
		n := 1 << logN
		logP := 1 + rng.Intn(logN)
		p := 1 << logP
		b := 1 + rng.Intn(5)
		w := NewWorld(n, p, b)
		nw := &naiveWorld{n: n, p: p, b: b}
		var prev [][][2]int // sends of the previous superstep
		steps := 1 + rng.Intn(6)
		for s := 0; s < steps; s++ {
			sends := make([][][2]int, n)
			work := make([]int64, n)
			for pe := range sends {
				for k := rng.Intn(4); k > 0; k-- {
					dst := rng.Intn(n)
					if rng.Intn(3) == 0 {
						dst = pe ^ rng.Intn(n/p) // stays on pe's processor
					}
					sends[pe] = append(sends[pe], [2]int{dst, rng.Intn(3) * rng.Intn(6)})
				}
				work[pe] = int64(rng.Intn(3))
			}
			w.Step(func(e *Env) {
				var want []Msg
				for src, ms := range prev {
					for k, m := range ms {
						if m[0] == e.PE() {
							want = append(want, Msg{Src: src, Tag: k, Data: make([]uint64, m[1])})
						}
					}
				}
				got := e.Inbox()
				if len(got) != len(want) {
					t.Fatalf("seed %d: PE %d got %d messages, want %d", seed, e.PE(), len(got), len(want))
				}
				for i := range got {
					if got[i].Src != want[i].Src || got[i].Tag != want[i].Tag || len(got[i].Data) != len(want[i].Data) {
						t.Fatalf("seed %d: PE %d message %d = %+v, want %+v", seed, e.PE(), i, got[i], want[i])
					}
					for j, v := range got[i].Data {
						if v != uint64(got[i].Src<<16|got[i].Tag<<8|j) {
							t.Fatalf("seed %d: PE %d message %d word %d = %#x", seed, e.PE(), i, j, v)
						}
					}
				}
				e.Work(work[e.PE()])
				for k, m := range sends[e.PE()] {
					data := make([]uint64, m[1])
					for j := range data {
						data[j] = uint64(e.PE()<<16 | k<<8 | j)
					}
					e.Send(m[0], k, data...)
				}
			})
			nw.step(sends, work)
			prev = sends
		}
		if w.Comm() != nw.comm || w.Computation() != nw.comp || w.Supersteps() != len(nw.steps) {
			t.Fatalf("seed %d (N=%d p=%d B=%d): comm/comp/steps = %d/%d/%d, naive %d/%d/%d",
				seed, n, p, b, w.Comm(), w.Computation(), w.Supersteps(), nw.comm, nw.comp, len(nw.steps))
		}
		g := make([]float64, logP)
		uniform := make([]int64, logP)
		perLevel := make([]int64, logP)
		for i := range g {
			g[i] = float64(int64(1) << uint(logP-i))
			uniform[i] = int64(b)
			perLevel[i] = 1 + int64(rng.Intn(6))
		}
		for _, bs := range [][]int64{uniform, perLevel} {
			if got, want := w.DBSPTime(g, bs), nw.dbsp(g, bs); got != want {
				t.Fatalf("seed %d (N=%d p=%d): DBSPTime(bs=%v) = %v, naive %v", seed, n, p, bs, got, want)
			}
		}
	}
}
