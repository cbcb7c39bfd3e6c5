package main

import (
	"fmt"
	"math/rand"
	"strings"

	"oblivhm/internal/core"
	"oblivhm/internal/hm"
)

// forkjoin-hm5 runs a batch of seeded, generated fork-join programs on hm5
// (32 virtual cores, four cache levels).  The programs mix SpawnSB with
// declared spaces, SpawnCGCSB, PFor, nested joins and Tick bursts; each
// leaf makes one Store of a checksum and nothing more, so the engine loop
// and the strand handoff do almost all of the work and the cache model
// almost none.

type nodeKind uint8

const (
	kStore nodeKind = iota // leaf: one Store of its checksum
	kTick                  // a burst of rounds of pure computation
	kSeq                   // children one after another
	kSB                    // SpawnSB of the children, each with its own declared space
	kCGC                   // SpawnCGCSB of the children under one uniform space
	kPFor                  // PFor over the children, one element each
)

type node struct {
	kind  nodeKind
	n     int64 // kStore: leaf index; kTick: rounds; kCGC: uniform space
	space int64 // declared space when the node runs as an SB task
	kids  []*node
}

// program is one generated fork-join program.
type program struct {
	root   *node
	leaves int
}

// fjShape sizes the generated batch.  Each program runs its phases one
// after another; averaging over many small phases keeps a pass's work
// nearly the same for every seed.
type fjShape struct {
	programs int // programs per pass, one cold run each
	phases   int // fork-join phases per program
	leaves   int // store leaves per phase
}

const (
	fjRootSpace = 1 << 19 // declared space of every program; fits hm5's top cache (2^20 words)
	fjMinSpace  = 1 << 6
	fjMaxFan    = 8
	fjPForFan   = 16
	quantum     = 32 // the engine's default quantum: one Tick(quantum) is one round
)

// generate builds the batch of programs of a seed.  It is a pure function
// of (seed, shape).
func generate(seed int64, sh fjShape) []program {
	rng := rand.New(rand.NewSource(seed))
	progs := make([]program, sh.programs)
	for i := range progs {
		g := &fjGen{rng: rng}
		root := &node{kind: kSeq, space: fjRootSpace}
		for j := 0; j < sh.phases; j++ {
			root.kids = append(root.kids, g.node(sh.leaves, fjRootSpace, 0))
		}
		progs[i] = program{root: root, leaves: g.nleaves}
	}
	return progs
}

type fjGen struct {
	rng     *rand.Rand
	nleaves int
}

// node generates a subtree with exactly `leaves` store leaves whose tasks
// declare at most `space` words.
func (g *fjGen) node(leaves int, space int64, depth int) *node {
	if leaves == 1 {
		leaf := &node{kind: kStore, n: int64(g.nleaves), space: space}
		g.nleaves++
		return leaf
	}
	var kind nodeKind
	switch r := g.rng.Intn(10); {
	case (r < 2 && depth > 0) || depth > 6:
		kind = kSeq
	case r < 5:
		kind = kSB
	case r < 8:
		kind = kCGC
	default:
		kind = kPFor
	}
	fan := fjMaxFan
	if kind == kPFor {
		fan = fjPForFan
	}
	k := min(2+g.rng.Intn(fan-1), leaves)
	parts := g.split(leaves, k)
	n := &node{kind: kind, space: space}
	child := pow2Floor(max(space/int64(k), fjMinSpace))
	if kind == kCGC {
		n.n = child
	}
	for _, part := range parts {
		s := child
		if kind == kSB {
			// Declared spaces spread over the cache levels below the parent.
			s = pow2Floor(max(child>>g.rng.Intn(8), fjMinSpace))
		}
		kid := g.node(part, s, depth+1)
		if kid.kind == kStore {
			// A Tick burst in front of every leaf: concurrent strands
			// contend for rounds, and a phase's work is nearly the same
			// for every seed.
			kid = &node{kind: kSeq, space: s, kids: []*node{g.tick(), kid}}
		}
		n.kids = append(n.kids, kid)
	}
	return n
}

// tick is a burst of 16 to 32 rounds of pure computation.
func (g *fjGen) tick() *node {
	return &node{kind: kTick, n: int64(16 + g.rng.Intn(17))}
}

// split divides total into k near-equal positive parts, the remainder
// going to random parts.
func (g *fjGen) split(total, k int) []int {
	parts := make([]int, k)
	for i := range parts {
		parts[i] = total / k
	}
	for _, i := range g.rng.Perm(k)[:total%k] {
		parts[i]++
	}
	return parts
}

func pow2Floor(x int64) int64 {
	p := int64(1)
	for p*2 <= x {
		p *= 2
	}
	return p
}

// String renders the program canonically (tests compare generations).
func (p program) String() string {
	var b strings.Builder
	var walk func(n *node)
	walk = func(n *node) {
		fmt.Fprintf(&b, "%d:%d:%d(", n.kind, n.n, n.space)
		for _, k := range n.kids {
			walk(k)
		}
		b.WriteByte(')')
	}
	walk(p.root)
	return b.String()
}

func forkjoinWorkload(sh fjShape, corrupt bool) *workload {
	return &workload{
		name: "forkjoin-hm5",
		setup: func(seed int64, tr *tracer, parent int) instance {
			sp := tr.begin("setup", parent)
			defer tr.end(sp)
			id := tr.begin("generate", sp)
			progs := generate(seed, sh)
			tr.end(id)
			id = tr.begin("new_machine", sp)
			s := core.NewSim(hm.MustMachine(hm.HM5(2, 4, 4)))
			fj := &fjInstance{s: s, seed: seed, corrupt: corrupt}
			for i, p := range progs {
				fj.runs = append(fj.runs, &fjRun{prog: p, idx: i, slots: s.NewU64(p.leaves), ran: make([]int32, p.leaves)})
			}
			tr.end(id)
			return fj
		},
	}
}

type fjInstance struct {
	s       *core.Session
	seed    int64
	runs    []*fjRun
	corrupt bool
}

// fjRun is one program of the batch with its checksum slots and the host
// count of how often each leaf ran.
type fjRun struct {
	prog  program
	idx   int
	slots core.U64
	ran   []int32
}

func (f *fjInstance) exec(tr *tracer, parent int) pass {
	var p pass
	for _, r := range f.runs {
		id := tr.begin("run_cold", parent)
		st, err := f.s.TryRunCold(fjRootSpace, func(c *core.Ctx) { f.execNode(c, r, r.prog.root) })
		tr.end(id)
		if err != nil {
			p.runs = append(p.runs, runOutcome{err: err})
			continue
		}
		if f.corrupt {
			f.s.PokeU(r.slots, 0, 0)
		}
		id = tr.begin("verify", parent)
		err = f.verify(r)
		tr.end(id)
		p.runs = append(p.runs, runOutcome{tuple: simTuple(f.s, st), err: err})
		p.accesses += st.Sim.Accesses
		addSim(&p, st)
	}
	return p
}

func (f *fjInstance) execNode(c *core.Ctx, r *fjRun, n *node) {
	switch n.kind {
	case kStore:
		r.slots.Set(c, int(n.n), checksum(f.seed, r.idx, int(n.n)))
		r.ran[n.n]++
	case kTick:
		// One Tick(quantum) per round: the engine forgives a larger
		// charge's overdraft at the round boundary.
		for i := int64(0); i < n.n; i++ {
			c.Tick(quantum)
		}
	case kSeq:
		for _, k := range n.kids {
			f.execNode(c, r, k)
		}
	case kSB:
		tasks := make([]core.Task, len(n.kids))
		for i, k := range n.kids {
			tasks[i] = core.Task{Space: k.space, Fn: func(cc *core.Ctx) { f.execNode(cc, r, k) }}
		}
		c.SpawnSB(tasks...)
	case kCGC:
		c.SpawnCGCSB(n.n, len(n.kids), func(cc *core.Ctx, i int) { f.execNode(cc, r, n.kids[i]) })
	case kPFor:
		// Eight words per element, one level-1 block on hm5: every element
		// may become its own chunk.
		c.PFor(len(n.kids), 8, func(cc *core.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				f.execNode(cc, r, n.kids[i])
			}
		})
	}
}

// verify checks that every leaf ran exactly once: the checksum read back
// with Peek, and the host-side count.
func (f *fjInstance) verify(r *fjRun) error {
	for i := 0; i < r.prog.leaves; i++ {
		if got, want := f.s.PeekU(r.slots, i), checksum(f.seed, r.idx, i); got != want || r.ran[i] != 1 {
			return fmt.Errorf("program %d leaf %d: checksum %#x want %#x, ran %d times", r.idx, i, got, want, r.ran[i])
		}
	}
	return nil
}

// checksum is leaf i's value in program prog: a splitmix64 finalizer,
// never zero.
func checksum(seed int64, prog, leaf int) uint64 {
	z := uint64(seed) ^ uint64(prog)<<32 ^ uint64(leaf)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z ^ z>>31) | 1
}
