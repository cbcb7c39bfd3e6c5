package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"oblivhm/internal/core"
	"oblivhm/internal/fft"
	"oblivhm/internal/hm"
)

// fftWorkload is fft-hm4: one MO-FFT on the hm4 preset, input built from
// the workload seed.  FFT is data-oblivious, so the warm-up pass on a
// second seed must give the same virtual tuple.
func fftWorkload(seed int64, n int, corrupt bool) *workload {
	refs := map[int64][]complex128{
		seed:          referenceFFT(fftInput(seed, n)),
		altSeed(seed): referenceFFT(fftInput(altSeed(seed), n)),
	}
	return &workload{
		name:          "fft-hm4",
		dataOblivious: true,
		setup: func(seed int64, tr *tracer, parent int) instance {
			sp := tr.begin("setup", parent)
			defer tr.end(sp)
			id := tr.begin("new_machine", sp)
			m := hm.MustMachine(hm.HM4(4, 4))
			s := core.NewSim(m)
			tr.end(id)
			id = tr.begin("build_input", sp)
			x := s.NewC128(n)
			for i, v := range fftInput(seed, n) {
				s.PokeC(x, i, v)
			}
			tr.end(id)
			return &fftInstance{s: s, x: x, ref: refs[seed], corrupt: corrupt}
		},
	}
}

type fftInstance struct {
	s       *core.Session
	x       core.C128
	ref     []complex128
	corrupt bool
}

func (f *fftInstance) exec(tr *tracer, parent int) pass {
	id := tr.begin("run_cold", parent)
	st, err := f.s.TryRunCold(fft.SpaceBound(f.x.N), func(c *core.Ctx) { fft.MOFFT(c, f.x) })
	tr.end(id)
	p := pass{}
	if err != nil {
		p.runs = []runOutcome{{err: err}}
		return p
	}
	if f.corrupt {
		f.s.PokeC(f.x, f.x.N/2, f.s.PeekC(f.x, f.x.N/2)+1)
	}
	id = tr.begin("verify", parent)
	got := make([]complex128, f.x.N)
	for i := range got {
		got[i] = f.s.PeekC(f.x, i)
	}
	err = compareFFT(got, f.ref)
	tr.end(id)
	p.runs = []runOutcome{{tuple: simTuple(f.s, st), err: err}}
	p.accesses = st.Sim.Accesses
	addSim(&p, st)
	return p
}

// fftInput is the seeded input of fft-hm4.
func fftInput(seed int64, n int) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	return in
}

// fftTolerance bounds max|got-want| relative to max|want|; MO-FFT and the
// radix-2 reference round differently, by far less than this.
const fftTolerance = 1e-9

func compareFFT(got, want []complex128) error {
	var maxErr, maxRef float64
	for i := range want {
		maxErr = math.Max(maxErr, cmplx.Abs(got[i]-want[i]))
		maxRef = math.Max(maxRef, cmplx.Abs(want[i]))
	}
	if maxErr > fftTolerance*maxRef || math.IsNaN(maxErr) {
		return fmt.Errorf("fft output differs from the radix-2 reference: max error %.3g of max magnitude %.3g", maxErr, maxRef)
	}
	return nil
}

// referenceFFT is an independent iterative radix-2 FFT with the paper's
// forward convention Y[i] = Σ_j X[j]·e^{-2πi·ij/n}; len(in) is a power of
// two.
func referenceFFT(in []complex128) []complex128 {
	n := len(in)
	out := make([]complex128, n)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i, v := range in {
		r := 0
		for b := 0; b < bits; b++ {
			r |= (i >> b & 1) << (bits - 1 - b)
		}
		out[r] = v
	}
	for size := 2; size <= n; size <<= 1 {
		step := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		for lo := 0; lo < n; lo += size {
			w := complex(1, 0)
			for k := 0; k < size/2; k++ {
				a, b := out[lo+k], w*out[lo+k+size/2]
				out[lo+k], out[lo+k+size/2] = a+b, a-b
				w *= step
			}
		}
	}
	return out
}

// simTuple is the virtual tuple of the session's last simulated run: steps,
// per-level max misses, the tasks anchored per level so far, and steals.
func simTuple(s *core.Session, st core.RunStats) string {
	levels := make([]int64, len(st.Sim.Levels))
	for i, l := range st.Sim.Levels {
		levels[i] = l.MaxMisses
	}
	placed := make([]int, len(levels))
	for i := range placed {
		placed[i] = s.PlacedAt(i + 1)
	}
	return fmt.Sprintf("steps=%d misses=%v placed=%v steals=%d", st.Steps, levels, placed, s.Steals())
}

// addSim adds a run's makespan and its L1 and top-level max misses to p.
func addSim(p *pass, st core.RunStats) {
	p.vsteps += st.Steps
	if lv := st.Sim.Levels; len(lv) > 0 {
		p.missL1 += lv[0].MaxMisses
		p.missTop += lv[len(lv)-1].MaxMisses
	}
}
