// Package nogep implements N-GEP (paper §V-B): the network-oblivious
// Gaussian Elimination Paradigm on the M(N) machine, built from the
// recursive structure of I-GEP with the 𝒟* reordering that eliminates
// duplicate quadrant reads for commutative GEP computations (Table I).
//
// Matrices are distributed in Morton (bit-interleaved) order over
// contiguous PE groups, so each quadrant of a matrix occupies a contiguous
// quarter of its group.  A recursive call executes on the PE subgroup
// owning its writable X quadrant; the read operands U, V, W are routed to
// that subgroup by explicit messages, which is exactly where N-GEP's
// communication volume comes from.  Parallel calls of a round execute in
// superstep lockstep (their traffic shares supersteps), so the recorded
// h-relations match the model's cost.
//
// The original I-GEP 𝒟 ordering is also provided (UseDStar=false) to
// measure the Table I difference: with 𝒟, the quadrants U11/U21 (round 1)
// and U12/U22 (round 2) are each read by two parallel subcalls and must be
// sent twice.
package nogep

import (
	"math"

	"oblivhm/internal/bitint"
	"oblivhm/internal/gep"
	"oblivhm/internal/no"
)

// buf is one matrix buffer distributed over PEs [Lo, Lo+Q) in Morton
// order: PE Lo+p holds slots [p*SlotsPer, (p+1)*SlotsPer).
type buf struct {
	Lo, Q    int
	M        int // dimension; M*M total slots
	SlotsPer int
	Data     [][]float64 // [pe-Lo][localSlot]
}

func newBuf(lo, q, m int) *buf {
	sp := m * m / q
	d := make([][]float64, q)
	for i := range d {
		d[i] = make([]float64, sp)
	}
	return &buf{Lo: lo, Q: q, M: m, SlotsPer: sp, Data: d}
}

// view is a square submatrix of a buf: slots [SB, SB+M²).
type view struct {
	B  *buf
	SB int
	M  int
}

func (v view) quad(t int) view { h := v.M / 2; return view{v.B, v.SB + t*h*h, h} }

// peRange returns the PE interval covering the view's slots.
func (v view) peRange() (lo, hi int) {
	lo = v.B.Lo + v.SB/v.B.SlotsPer
	hi = v.B.Lo + (v.SB+v.M*v.M-1)/v.B.SlotsPer + 1
	return lo, hi
}

func (v view) sameAs(o view) bool { return v.B == o.B && v.SB == o.SB && v.M == o.M }

// get/set address element (i,j) of the view (local coordinates).
func (v view) slot(i, j int) (pe, loc int) {
	z := v.SB + int(bitint.Interleave(uint64(i), uint64(j)))
	return v.B.Lo + z/v.B.SlotsPer, z % v.B.SlotsPer
}

func (v view) get(i, j int) float64 {
	pe, loc := v.slot(i, j)
	return v.B.Data[pe-v.B.Lo][loc]
}

func (v view) set(i, j int, x float64) {
	pe, loc := v.slot(i, j)
	v.B.Data[pe-v.B.Lo][loc] = x
}

// Engine runs one GEP computation over a World.
type Engine struct {
	W        *no.World
	Spec     gep.Spec
	UseDStar bool

	// Scratch reused by every localisation and base-case superstep.
	copies  []copyOp
	payload []uint64
	sendIdx peIndex // source PE -> copies it sends from
	callIdx peIndex // executing PE -> base-case calls
}

// copyOp routes the slots of src into the fresh buffer dst.
type copyOp struct {
	src view
	dst *buf
}

// peIndex maps each PE to the ids of the items whose PE span covers it,
// in increasing id order (compressed sparse rows).
type peIndex struct {
	off []int32 // PE pe owns ids[off[pe]:off[pe+1]]
	ids []int32
}

// build indexes items 0..count-1 over n PEs; span gives each item's PE
// interval.
func (x *peIndex) build(n, count int, span func(i int) (lo, hi int)) {
	x.off = append(x.off[:0], make([]int32, n+1)...)
	for i := 0; i < count; i++ {
		lo, hi := span(i)
		for pe := lo; pe < hi; pe++ {
			x.off[pe+1]++
		}
	}
	for pe := 0; pe < n; pe++ {
		x.off[pe+1] += x.off[pe]
	}
	x.ids = append(x.ids[:0], make([]int32, x.off[n])...)
	// Fill with off[pe] as pe's cursor, which leaves off[pe] at pe's end;
	// shifting restores the starts.
	for i := 0; i < count; i++ {
		lo, hi := span(i)
		for pe := lo; pe < hi; pe++ {
			x.ids[x.off[pe]] = int32(i)
			x.off[pe]++
		}
	}
	copy(x.off[1:], x.off[:n])
	x.off[0] = 0
}

// of returns the ids indexed at pe.
func (x *peIndex) of(pe int) []int32 { return x.ids[x.off[pe]:x.off[pe+1]] }

// call is one pending function invocation.
type call struct {
	kind       byte // 'A', 'B', 'C', 'D'
	x, u, v, w view
	i0, j0, k0 int
}

// RunGEP executes the full computation 𝒜(x,x,x,x) on an M×M matrix
// distributed over all N PEs; in/out are host-side row-major copies.
func (g *Engine) RunGEP(m int, in []float64) []float64 {
	x := g.distribute(m, in)
	xv := view{B: x, SB: 0, M: m}
	g.exec([]call{{kind: 'A', x: xv, u: xv, v: xv, w: xv}})
	return g.collect(x)
}

// RunMatMul executes C += A·B through function 𝒟 on three disjoint
// distributed matrices.
func (g *Engine) RunMatMul(m int, cin, a, b []float64) []float64 {
	cb := g.distribute(m, cin)
	ab := g.distribute(m, a)
	bb := g.distribute(m, b)
	g.exec([]call{{
		kind: 'D',
		x:    view{B: cb, M: m},
		u:    view{B: ab, M: m},
		v:    view{B: bb, M: m},
		w:    view{B: bb, M: m},
	}})
	return g.collect(cb)
}

func (g *Engine) distribute(m int, host []float64) *buf {
	n := g.W.N
	if !bitint.IsPow2(m) || m*m%n != 0 || m*m < n {
		panic(no.Usagef("nogep: need power-of-two m with m² >= N and N | m² (m=%d, N=%d)", m, n))
	}
	b := newBuf(0, n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := view{B: b, M: m}
			v.set(i, j, host[i*m+j])
		}
	}
	return b
}

func (g *Engine) collect(b *buf) []float64 {
	m := b.M
	out := make([]float64, m*m)
	v := view{B: b, M: m}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out[i*m+j] = v.get(i, j)
		}
	}
	return out
}

// exec runs a set of parallel calls (disjoint executing groups) in
// superstep lockstep: first a combined localisation phase that routes every
// remote read operand to its executing subgroup, then either one local
// compute superstep (single-PE groups) or phase-aligned recursion.
func (g *Engine) exec(calls []call) {
	live := calls[:0:0]
	for _, c := range calls {
		if g.Spec.S.Intersects(c.i0, c.j0, c.k0, c.x.M) {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return
	}
	live = g.localize(live)

	lo0, hi0 := live[0].x.peRange()
	if hi0-lo0 == 1 {
		g.baseCompute(live)
		return
	}
	// Phase-aligned recursion: every call expands into the same number of
	// rounds (kinds within a set are {A}, {B,C}, or {D}).
	nph := phases(live[0].kind)
	for ph := 0; ph < nph; ph++ {
		var next []call
		for _, c := range live {
			next = append(next, g.expand(c, ph)...)
		}
		g.exec(next)
	}
}

func phases(kind byte) int {
	if kind == 'A' {
		return 6
	}
	if kind == 'D' {
		return 2
	}
	return 4
}

// expand returns the subcalls of phase ph of call c (quadrant views and
// shifted Σ origins).
func (g *Engine) expand(c call, ph int) []call {
	h := c.x.M / 2
	// Quadrant helpers: t = 2*rowHalf + colHalf.
	xq := func(t int) view { return c.x.quad(t) }
	uq := func(t int) view { return c.u.quad(t) }
	vq := func(t int) view { return c.v.quad(t) }
	wq := func(t int) view { return c.w.quad(t) }
	mk := func(kind byte, xt, ut, vt, wt int) call {
		return call{
			kind: kind,
			x:    xq(xt), u: uq(ut), v: vq(vt), w: wq(wt),
			i0: c.i0 + (xt>>1)*h,
			j0: c.j0 + (xt&1)*h,
			k0: c.k0 + (ut&1)*h,
		}
	}
	const (
		q11 = 0
		q12 = 1
		q21 = 2
		q22 = 3
	)
	switch c.kind {
	case 'A':
		switch ph {
		case 0:
			return []call{mk('A', q11, q11, q11, q11)}
		case 1:
			return []call{mk('B', q12, q11, q12, q11), mk('C', q21, q21, q11, q11)}
		case 2:
			return []call{mk('D', q22, q21, q12, q11)}
		case 3:
			return []call{mk('A', q22, q22, q22, q22)}
		case 4:
			return []call{mk('B', q21, q22, q21, q22), mk('C', q12, q12, q22, q22)}
		case 5:
			return []call{mk('D', q11, q12, q21, q22)}
		}
	case 'B':
		switch ph {
		case 0:
			return []call{mk('B', q11, q11, q11, q11), mk('B', q12, q11, q12, q11)}
		case 1:
			return []call{mk('D', q21, q21, q11, q11), mk('D', q22, q21, q12, q11)}
		case 2:
			return []call{mk('B', q21, q22, q21, q22), mk('B', q22, q22, q22, q22)}
		case 3:
			return []call{mk('D', q11, q12, q21, q22), mk('D', q12, q12, q22, q22)}
		}
	case 'C':
		switch ph {
		case 0:
			return []call{mk('C', q11, q11, q11, q11), mk('C', q21, q21, q11, q11)}
		case 1:
			return []call{mk('D', q12, q11, q12, q11), mk('D', q22, q21, q12, q11)}
		case 2:
			return []call{mk('C', q12, q12, q22, q22), mk('C', q22, q22, q22, q22)}
		case 3:
			return []call{mk('D', q11, q12, q21, q22), mk('D', q21, q22, q21, q22)}
		}
	case 'D':
		if g.UseDStar {
			// Table I right column.
			if ph == 0 {
				return []call{
					mk('D', q11, q11, q11, q11),
					mk('D', q12, q12, q22, q22),
					mk('D', q21, q22, q21, q22),
					mk('D', q22, q21, q12, q11),
				}
			}
			return []call{
				mk('D', q11, q12, q21, q22),
				mk('D', q12, q11, q12, q11),
				mk('D', q21, q21, q11, q11),
				mk('D', q22, q22, q22, q22),
			}
		}
		// Table I left column (I-GEP's 𝒟).
		if ph == 0 {
			return []call{
				mk('D', q11, q11, q11, q11),
				mk('D', q12, q11, q12, q11),
				mk('D', q21, q21, q11, q11),
				mk('D', q22, q21, q12, q11),
			}
		}
		return []call{
			mk('D', q11, q12, q21, q22),
			mk('D', q12, q12, q22, q22),
			mk('D', q21, q22, q21, q22),
			mk('D', q22, q22, q22, q22),
		}
	}
	panic("nogep: bad phase")
}

// localize routes every remote read operand of every call onto the call's
// executing PE group, in one combined 2-superstep phase.  Operands that
// alias the call's X (or a previously localized operand of the same call)
// are shared, not copied.
func (g *Engine) localize(calls []call) []call {
	copies := g.copies[:0]
	out := make([]call, len(calls))
	for ci, c := range calls {
		lo, hi := c.x.peRange()
		q := hi - lo
		ops := [3]*view{&c.u, &c.v, &c.w}
		done := make([]view, 0, 3)
		dsts := make([]*buf, 0, 3)
		for _, op := range ops {
			if op.sameAs(c.x) {
				*op = c.x
				continue
			}
			olo, ohi := op.peRange()
			if olo >= lo && ohi <= hi {
				continue // already resident within this group: reads are local
			}
			reused := false
			for di, d := range done {
				if op.sameAs(d) {
					*op = view{B: dsts[di], SB: 0, M: op.M}
					reused = true
					break
				}
			}
			if reused {
				continue
			}
			dq := q
			if dq > op.M*op.M {
				dq = op.M * op.M
			}
			dst := newBuf(lo, dq, op.M)
			copies = append(copies, copyOp{src: *op, dst: dst})
			done = append(done, *op)
			dsts = append(dsts, dst)
			*op = view{B: dst, SB: 0, M: op.M}
		}
		out[ci] = c
	}
	g.copies = copies
	if len(copies) == 0 {
		return out
	}
	// One combined routing phase: every PE sends the contiguous runs of
	// source slots it owns, each message headed by the copy's index in
	// copies (ids are local to this phase); receivers store into their
	// local slots.
	w := g.W
	g.sendIdx.build(w.N, len(copies), func(i int) (int, int) { return copies[i].src.peRange() })
	w.Step(func(e *no.Env) {
		pe := e.PE()
		for _, id := range g.sendIdx.of(pe) {
			t := &copies[id]
			b := t.src.B
			mySlotLo := (pe - b.Lo) * b.SlotsPer
			mySlotHi := mySlotLo + b.SlotsPer
			lo := max(mySlotLo, t.src.SB)
			hi := min(mySlotHi, t.src.SB+t.src.M*t.src.M)
			for z := lo; z < hi; {
				dz := z - t.src.SB // destination slot
				dpe := t.dst.Lo + dz/t.dst.SlotsPer
				runEnd := min(hi, z+(t.dst.SlotsPer-dz%t.dst.SlotsPer))
				payload := append(g.payload[:0], uint64(id), uint64(dz%t.dst.SlotsPer))
				for zz := z; zz < runEnd; zz++ {
					payload = append(payload, f2u(b.Data[pe-b.Lo][zz-mySlotLo]))
				}
				e.Send(dpe, 0, payload...)
				g.payload = payload
				z = runEnd
			}
		}
	})
	w.Step(func(e *no.Env) {
		pe := e.PE()
		for _, m := range e.Inbox() {
			dst := copies[m.Data[0]].dst
			loc := int(m.Data[1])
			for k, wv := range m.Data[2:] {
				dst.Data[pe-dst.Lo][loc+k] = u2f(wv)
			}
		}
	})
	return out
}

// baseCompute executes all calls of the set locally (each on its single
// owning PE) in one superstep, in the canonical k,i,j order.
func (g *Engine) baseCompute(calls []call) {
	w := g.W
	g.callIdx.build(w.N, len(calls), func(i int) (int, int) {
		lo, _ := calls[i].x.peRange()
		return lo, lo + 1
	})
	w.Step(func(e *no.Env) {
		for _, id := range g.callIdx.of(e.PE()) {
			c := &calls[id]
			m := c.x.M
			for k := 0; k < m; k++ {
				for i := 0; i < m; i++ {
					for j := 0; j < m; j++ {
						if !g.Spec.S.Has(c.i0+i, c.j0+j, c.k0+k) {
							continue
						}
						e.Work(1)
						c.x.set(i, j, g.Spec.F(c.x.get(i, j), c.u.get(i, k), c.v.get(k, j), c.w.get(k, k)))
					}
				}
			}
		}
	})
}

func f2u(x float64) uint64 { return math.Float64bits(x) }
func u2f(x uint64) float64 { return math.Float64frombits(x) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
