// Package no implements the network-oblivious substrate of Bilardi et al.
// used in paper §IV: the M(N) machine (N processing elements with local
// memory communicating point-to-point in synchronous supersteps), its
// execution on M(p,B) (each processor simulates N/p consecutive PEs;
// messages between processors travel in blocks of B words), and the
// D-BSP(P, g, B) communication-time accounting.
//
// A network-oblivious algorithm is written against the Step API only — it
// sees N and its own PE index, never p or B.  The World records, per
// superstep, the exact word traffic between each processor pair, from which
// it derives:
//
//   - communication complexity on M(p,B): Σ_s h_s, where h_s is the
//     maximum over processors of max(blocks sent, blocks received), with
//     ceil(words/B) blocks per ordered processor pair;
//   - computation complexity: Σ_s of the maximum over processors of local
//     operations (explicit Work charges plus one per message word);
//   - D-BSP communication time: Σ_s h_s(B_i)·g_i, where i is the smallest
//     cluster level containing every message of superstep s.
package no

import (
	"errors"
	"fmt"
)

// ErrUsage is the sentinel wrapped by every machine-shape and PE-count
// validation failure in this package and packages noalgo and nogep: p not
// dividing N, non-power-of-two PE counts, input slices of the wrong
// length, matrix sides that do not fit the PE count.  The validations
// panic (the substrate has no error plumbing through the superstep API),
// but the panic values are errors wrapping ErrUsage, so harness.RunNO
// recovers them into ordinary returned errors and CLIs can
// errors.Is(err, no.ErrUsage) to print a usage hint instead of a stack
// trace.
var ErrUsage = errors.New("invalid machine or input shape")

// Usagef builds an ErrUsage-wrapping error for a validation panic.
func Usagef(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrUsage)...)
}

// Msg is one received message.
type Msg struct {
	Src  int
	Tag  int
	Data []uint64
}

// World is an M(N) machine executed on M(p,B).
//
// Its superstep buffers are reused: inbox and outbox swap at every
// superstep boundary, and so do the two word arenas that back message
// payloads, so a superstep allocates only when it sends more than any
// earlier one did.
type World struct {
	N int // PEs
	P int // processors (must divide N, power of two for D-BSP accounting)
	B int // block size in words

	per int // PEs per processor

	inbox  [][]Msg // delivered this superstep, per destination PE
	outbox [][]Msg // sent during the running superstep
	// inWords and outWords back the payloads of inbox and outbox.
	inWords, outWords []uint64

	steps   int
	comm    int64 // Σ h_s with the configured B
	compTot int64 // Σ max-per-processor work

	work []int64 // per-processor work (sent plus received words) this superstep

	// Traffic of the processor whose PEs are running: words to each
	// destination processor, a touched mark (a pair of zero-word messages
	// still counts toward the D-BSP covering cluster) and the touched
	// destinations in first-send order.
	row     []int64
	rowSeen []bool
	rowDst  []int32

	// traffic records the cross-processor pairs of every superstep, for
	// D-BSP re-costing under other block sizes: superstep s is
	// traffic[stepOff[s]:stepOff[s+1]].
	traffic []pairRun
	stepOff []int

	sent, recv []int64 // hRelation scratch, all zero between calls
}

// pairRun is the words one processor sent another during one superstep.
type pairRun struct {
	src, dst int32
	words    int64
}

// NewWorld creates an M(N) machine executed on p processors with block
// size b.  p must divide N.
func NewWorld(n, p, b int) *World {
	if n <= 0 {
		panic(Usagef("no: machine size N=%d must be positive", n))
	}
	if p <= 0 || n%p != 0 {
		panic(Usagef("no: processor count p=%d must be positive and divide N=%d", p, n))
	}
	if b <= 0 {
		b = 1
	}
	return &World{
		N:       n,
		P:       p,
		B:       b,
		per:     n / p,
		inbox:   make([][]Msg, n),
		outbox:  make([][]Msg, n),
		work:    make([]int64, p),
		row:     make([]int64, p),
		rowSeen: make([]bool, p),
		stepOff: []int{0},
		sent:    make([]int64, p),
		recv:    make([]int64, p),
	}
}

// ProcOf returns the processor simulating PE pe (N/p consecutive PEs per
// processor, as the model prescribes).
func (w *World) ProcOf(pe int) int { return pe / w.per }

// Env is the per-PE view during a superstep.
type Env struct {
	w    *World
	pe   int
	proc int // processor simulating pe
}

// PE returns the executing processing element's index.
func (e *Env) PE() int { return e.pe }

// N returns the machine size (part of the M(N) specification, so network-
// oblivious algorithms may use it).
func (e *Env) N() int { return e.w.N }

// Inbox returns the messages delivered to this PE (sent in the previous
// superstep), in deterministic (src, send order) order.  The messages and
// their payloads are valid until the running superstep returns: the World
// reuses their storage for the superstep after it, so a caller that needs
// one longer copies it.
func (e *Env) Inbox() []Msg { return e.w.inbox[e.pe] }

// Send queues a message for delivery at the start of the next superstep.
// The payload is copied.  One unit of work is charged per word, to the
// sending and to the receiving processor.
func (e *Env) Send(dst, tag int, data ...uint64) {
	w := e.w
	if dst < 0 || dst >= w.N {
		panic(fmt.Sprintf("no: send to PE %d of %d", dst, w.N))
	}
	lo := len(w.outWords)
	w.outWords = append(w.outWords, data...)
	hi := len(w.outWords)
	w.outbox[dst] = append(w.outbox[dst], Msg{Src: e.pe, Tag: tag, Data: w.outWords[lo:hi:hi]})
	words := int64(len(data))
	dp := dst / w.per
	w.work[e.proc] += words
	w.work[dp] += words
	if dp != e.proc {
		if !w.rowSeen[dp] {
			w.rowSeen[dp] = true
			w.rowDst = append(w.rowDst, int32(dp))
		}
		w.row[dp] += words
	}
}

// Work charges n local operations to the executing PE's processor.
func (e *Env) Work(n int64) { e.w.work[e.proc] += n }

// Step runs one superstep: f is invoked for every PE (in index order —
// the simulation is sequential and deterministic), messages sent during the
// superstep are delivered at the next one, and the communication accounts
// are updated.
func (w *World) Step(f func(e *Env)) {
	for i := range w.outbox {
		w.outbox[i] = w.outbox[i][:0]
	}
	w.outWords = w.outWords[:0]
	clear(w.work)
	env := Env{w: w}
	// PEs run in index order, so each processor's sends are contiguous and
	// its row of pair traffic is complete when its last PE returns.
	for sp := 0; sp < w.P; sp++ {
		env.proc = sp
		for pe := sp * w.per; pe < (sp+1)*w.per; pe++ {
			env.pe = pe
			f(&env)
		}
		for _, dp := range w.rowDst {
			w.traffic = append(w.traffic, pairRun{src: int32(sp), dst: dp, words: w.row[dp]})
			w.row[dp] = 0
			w.rowSeen[dp] = false
		}
		w.rowDst = w.rowDst[:0]
	}
	w.comm += w.hRelation(w.traffic[w.stepOff[w.steps]:], int64(w.B))
	w.stepOff = append(w.stepOff, len(w.traffic))
	maxWork := int64(0)
	for _, t := range w.work {
		maxWork = max(maxWork, t)
	}
	w.compTot += maxWork
	w.steps++
	w.inbox, w.outbox = w.outbox, w.inbox
	w.inWords, w.outWords = w.outWords, w.inWords
}

// hRelation computes h_s = max over processors of max(sent, received)
// blocks for the given pair traffic and block size.
func (w *World) hRelation(runs []pairRun, b int64) int64 {
	for _, r := range runs {
		blocks := (r.words + b - 1) / b
		w.sent[r.src] += blocks
		w.recv[r.dst] += blocks
	}
	// The first run naming a processor sees its full total; zeroing it
	// there leaves the scratch clear for the next call.
	h := int64(0)
	for _, r := range runs {
		h = max(h, w.sent[r.src], w.recv[r.dst])
		w.sent[r.src], w.recv[r.dst] = 0, 0
	}
	return h
}

// Supersteps returns the number of supersteps executed.
func (w *World) Supersteps() int { return w.steps }

// Comm returns the communication complexity on M(p,B): Σ_s h_s.
func (w *World) Comm() int64 { return w.comm }

// Computation returns the computation complexity: Σ_s of the maximum
// per-processor work.
func (w *World) Computation() int64 { return w.compTot }

// DBSPTime returns the D-BSP(P, g, B) communication time of the recorded
// execution: for each superstep, the smallest enclosing cluster level i
// (every message stays within a cluster of size P/2^i) contributes
// h_s(B_i)·g_i.  g and bs are indexed by cluster level 0..log2(P)-1;
// P is the world's processor count, which must be a power of two.
// DBSPTime works in the World's own scratch, so it is not safe for
// concurrent use on one World.
func (w *World) DBSPTime(g []float64, bs []int64) float64 {
	logP := 0
	for 1<<logP < w.P {
		logP++
	}
	if 1<<logP != w.P {
		panic("no: D-BSP accounting requires power-of-two P")
	}
	if len(g) < logP || len(bs) < logP {
		panic("no: need g and B vectors of length log2(P)")
	}
	total := 0.0
	for s := 0; s < w.steps; s++ {
		runs := w.traffic[w.stepOff[s]:w.stepOff[s+1]]
		if len(runs) == 0 {
			continue
		}
		// Smallest cluster size 2^k covering every (src,dst) pair.
		k := 0
		for _, r := range runs {
			for r.src>>k != r.dst>>k {
				k++
			}
		}
		i := logP - k // cluster size 2^k ⇔ level i with 2^i clusters
		if i < 0 {
			i = 0
		}
		total += float64(w.hRelation(runs, bs[i])) * g[i]
	}
	return total
}
