package hm

// Stream-level equivalence of the round fan-in flush paths (fanin.go)
// against the plain serial access walk.  A synthetic driver records
// per-core, per-round access chunks through StartRoundFanIn/MarkRound —
// exactly what the engine's speculative phase produces — and flushes them
// in (round, core) lexicographic order through FlushFanRounds and
// FlushFanChunk; a second machine of the same preset consumes the same
// stream in that serial interleaving directly.  Every cache must end with
// byte-identical stats and residency, and the access counters must agree,
// across bulk round ranges, core subsets and partial rounds.

import (
	"math/rand"
	"reflect"
	"testing"
)

const parTestHeap = 1 << 15

// compareMachines asserts per-cache equality of stats and residency plus the
// aggregate snapshot.
func compareMachines(t *testing.T, serial, fan *Machine, tag string) {
	t.Helper()
	ss, fs := serial.Stats(), fan.Stats()
	for i, level := range serial.ByLevel {
		for j, c := range level {
			fc := fan.ByLevel[i][j]
			if c.Stats != fc.Stats {
				t.Errorf("%s: L%d[%d] stats diverge:\n  serial %+v\n  fan-in %+v", tag, i+1, j, c.Stats, fc.Stats)
			}
			if c.resident != fc.resident {
				t.Errorf("%s: L%d[%d] residency diverges: serial %d, fan-in %d", tag, i+1, j, c.resident, fc.resident)
			}
		}
	}
	if serial.Accesses != fan.Accesses {
		t.Errorf("%s: access counts diverge: serial %d, fan-in %d", tag, serial.Accesses, fan.Accesses)
	}
	if !reflect.DeepEqual(ss, fs) {
		t.Errorf("%s: snapshots diverge:\n  serial %+v\n  fan-in %+v", tag, ss, fs)
	}
}

// fanAcc is one planned access: writes stay inside the issuing core's own
// region (the engine's fork-join race-freedom contract), loads roam across
// all regions plus a shared hot range so coherent presets see real
// invalidation traffic.
type fanAcc struct {
	a     Addr
	write bool
}

// planFanPhase builds rounds+1 rows of per-core chunks; the last row is the
// partial round (recorded but never marked).
func planFanPhase(rng *rand.Rand, cores []int, ncores, rounds, perRound int) [][][]fanAcc {
	plan := make([][][]fanAcc, rounds+1)
	for r := range plan {
		plan[r] = make([][]fanAcc, ncores)
		for _, c := range cores {
			n := 1 + rng.Intn(perRound)
			if r == rounds {
				n = rng.Intn(perRound) // partial rounds may be empty
			}
			chunk := make([]fanAcc, n)
			for i := range chunk {
				if rng.Intn(3) == 0 {
					chunk[i] = fanAcc{a: Addr(int64(c)*1024 + rng.Int63n(1024)), write: true}
				} else if rng.Intn(3) == 0 {
					chunk[i] = fanAcc{a: Addr(rng.Int63n(512))} // shared hot region
				} else {
					chunk[i] = fanAcc{a: Addr(int64(rng.Intn(ncores))*1024 + rng.Int63n(1024))}
				}
			}
			plan[r][c] = chunk
		}
	}
	return plan
}

// driveFanPhase records the plan into fan's fan-in buffers (per core, in
// round order, marking completed rounds), replays the serial interleaving
// into serial directly, then flushes fan's buffers: one bulk range
// [0, bulkHi), a second bulk range [bulkHi, rounds), and finally the
// per-core partial chunks.
func driveFanPhase(t *testing.T, serial, fan *Machine, plan [][][]fanAcc, cores []int, bulkHi int) {
	t.Helper()
	rounds := len(plan) - 1
	fan.StartRoundFanIn()
	for _, c := range cores {
		for r := 0; r <= rounds; r++ {
			for _, ac := range plan[r][c] {
				if ac.write {
					fan.Store(c, ac.a, uint64(ac.a))
				} else {
					fan.Load(c, ac.a)
				}
			}
			if r < rounds {
				fan.MarkRound(c)
			}
		}
	}
	fan.EndRoundFanIn()

	for r := 0; r <= rounds; r++ {
		for _, c := range cores {
			for _, ac := range plan[r][c] {
				if ac.write {
					serial.Store(c, ac.a, uint64(ac.a))
				} else {
					serial.Load(c, ac.a)
				}
			}
		}
	}

	fan.FlushFanRounds(cores, 0, bulkHi)
	fan.FlushFanRounds(cores, bulkHi, rounds)
	for _, c := range cores {
		fan.FlushFanChunk(c, rounds)
	}
}

// TestFlushFanRoundsSerialWalk pins FlushFanRounds: bulk ranges walk the cache hierarchy in-line in
// (round, core) order, including a core subset and trailing partial rounds.
func TestFlushFanRoundsSerialWalk(t *testing.T) {
	for _, cfg := range []Config{MC3(8), HM4(4, 4)} {
		t.Run(cfg.Name, func(t *testing.T) {
			serial, fan := MustMachine(cfg), MustMachine(cfg)
			serial.Alloc(parTestHeap)
			fan.Alloc(parTestHeap)
			rng := rand.New(rand.NewSource(7))
			all := make([]int, fan.Cores())
			for i := range all {
				all[i] = i
			}
			subset := all[:len(all)-1]
			for phase := 0; phase < 4; phase++ {
				cores := all
				if phase%2 == 1 {
					cores = subset
				}
				plan := planFanPhase(rng, cores, fan.Cores(), 12, 24)
				driveFanPhase(t, serial, fan, plan, cores, 9)
			}
			compareMachines(t, serial, fan, cfg.Name)
		})
	}
}
