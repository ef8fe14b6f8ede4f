package mathx

import "math"

// This file is the random-number substrate of the sampler-v2 synthesis
// engine (see DESIGN.md "Sampler stream and determinism"): a small,
// allocation-free PCG-style generator seeded through the splitmix64
// finalizer, plus ziggurat samplers for the normal and exponential
// variates the session synthesizer draws per session. math/rand's
// lagged-Fibonacci source costs a ~5 KB allocation and ~1800 seeding
// steps per rand.New, which the simulator used to pay once per
// (BS, day) cell; a PCG is 16 bytes of state and two multiplications
// to seed, so a generator can live on the stack of the day loop.

// SplitMix64 advances x by the golden-gamma increment and applies the
// splitmix64 finalizer (Steele, Lea & Flood 2014): a bijective mixer
// whose output stream passes BigCrush. It is the canonical way to
// derive well-dispersed seed material from structured input such as
// (master seed, BS index, day).
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// PCG is a PCG-XSH-RR 64/32 generator (O'Neill 2014): a 64-bit linear
// congruential state whose high bits are folded into a 32-bit output
// through an xorshift and a data-dependent rotation. The zero value is
// a valid (if fixed-stream) generator; call Seed or SeedStream before
// use. PCG is not safe for concurrent use; give each worker its own.
type PCG struct {
	state uint64
	inc   uint64 // stream selector, always odd
}

const pcgMult = 6364136223846793005

// Seed initializes the generator on the stream selected by seq with
// the given state seed, following the reference pcg32_srandom
// initialization.
func (p *PCG) Seed(state, seq uint64) {
	p.state = 0
	p.inc = seq<<1 | 1
	p.Uint32()
	p.state += state
	p.Uint32()
}

// SeedStream seeds the generator for one (a, b) cell of a master
// seed's stream family — e.g. a = BS index, b = day. Both the state
// and the stream selector pass through SplitMix64, so structured
// nearby inputs land on uncorrelated streams.
func (p *PCG) SeedStream(master, a, b uint64) {
	h := SplitMix64(master)
	h = SplitMix64(h ^ (a*0xBF58476D1CE4E5B9 + 1))
	s := SplitMix64(h ^ (b*0x94D049BB133111EB + 1))
	p.Seed(s, SplitMix64(s))
}

// pcgOutput folds a pre-advance PCG state into its 32-bit output
// (XSH-RR): an xorshift of the high bits followed by a data-dependent
// rotation. Factored out of Uint32 so the lane-split kernels can apply
// it to states produced by jump-ahead rather than sequential stepping.
func pcgOutput(old uint64) uint32 {
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	return pcgOutput(old)
}

// lcgJump returns the stride-delta composition (A_k, C_k) of the LCG
// step under stream increment inc: one application of
// state -> A_k·state + C_k equals delta single steps
// state -> A·state + C. A_k = A^k and C_k = (A^{k-1} + ... + A + 1)·C,
// both computed by binary exponentiation on the affine map (Brown 1994
// "Random number generation with arbitrary strides", the same
// composition pcg_advance uses); affine powers of one base map
// commute, so the accumulation order is immaterial. All arithmetic is
// modulo 2^64, which uint64 wraparound provides.
func lcgJump(delta, inc uint64) (aK, cK uint64) {
	aK, cK = 1, 0
	curA, curC := uint64(pcgMult), inc
	for delta > 0 {
		if delta&1 != 0 {
			aK *= curA
			cK = cK*curA + curC
		}
		curC = (curA + 1) * curC
		curA *= curA
		delta >>= 1
	}
	return aK, cK
}

// Advance moves the generator delta steps forward in its Uint32 state
// sequence in O(log delta) time: Advance(k) leaves the generator
// exactly where k discarded Uint32 calls would.
func (p *PCG) Advance(delta uint64) {
	aK, cK := lcgJump(delta, p.inc)
	p.state = p.state*aK + cK
}

// Uint64 returns the next 64 uniformly distributed bits.
func (p *PCG) Uint64() uint64 {
	hi := uint64(p.Uint32())
	lo := uint64(p.Uint32())
	return hi<<32 | lo
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) * 0x1p-53
}

// Ziggurat tables (Marsaglia & Tsang 2000) for the standard normal and
// exponential distributions, computed once at package init from the
// published rectangle parameters rather than transcribed, so they are
// exact for this float64 layout by construction.
const (
	znR = 3.442619855899       // normal: rightmost layer boundary
	znV = 9.91256303526217e-3  // normal: per-layer area
	zeR = 7.69711747013104972  // exponential: rightmost layer boundary
	zeV = 3.949659822581572e-3 // exponential: per-layer area
)

var (
	znK [128]uint32
	znW [128]float64
	znF [128]float64
	zeK [256]uint32
	zeW [256]float64
	zeF [256]float64
)

func init() {
	// Normal layers over |x|, 31-bit uniforms against signed outputs.
	const m1 = 1 << 31
	dn, tn := znR, znR
	q := znV / math.Exp(-0.5*dn*dn)
	znK[0] = uint32(dn / q * m1)
	znK[1] = 0
	znW[0] = q / m1
	znW[127] = dn / m1
	znF[0] = 1
	znF[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(znV/dn+math.Exp(-0.5*dn*dn)))
		znK[i+1] = uint32(dn / tn * m1)
		tn = dn
		znF[i] = math.Exp(-0.5 * dn * dn)
		znW[i] = dn / m1
	}
	// Exponential layers, full 32-bit uniforms.
	const m2 = 1 << 32
	de, te := zeR, zeR
	q = zeV / math.Exp(-de)
	zeK[0] = uint32(de / q * m2)
	zeK[1] = 0
	zeW[0] = q / m2
	zeW[255] = de / m2
	zeF[0] = 1
	zeF[255] = math.Exp(-de)
	for i := 254; i >= 1; i-- {
		de = -math.Log(zeV/de + math.Exp(-de))
		zeK[i+1] = uint32(de / te * m2)
		te = de
		zeF[i] = math.Exp(-de)
		zeW[i] = de / m2
	}
}

// NormFloat64 returns a standard normal variate via the ziggurat
// method: one 32-bit draw and one table compare on ~98.8% of calls.
func (p *PCG) NormFloat64() float64 {
	for {
		j := int32(p.Uint32())
		i := j & 127
		x := float64(j) * znW[i]
		if absInt32(j) < znK[i] {
			return x
		}
		if i == 0 {
			// Tail beyond znR: Marsaglia's exact tail algorithm.
			for {
				x = -math.Log(p.Float64()) / znR
				y := -math.Log(p.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return znR + x
			}
			return -znR - x
		}
		if znF[i]+p.Float64()*(znF[i-1]-znF[i]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

// Batch draw kernels: fill-N forms of the scalar samplers used by the
// parallel generation plane (see DESIGN.md "Lane-split kernels and LCG
// jump-ahead"). The LCG core advances by one fixed affine map per
// draw, so "k positions ahead" is itself a single precomputed affine
// map (lcgJump): the kernels exploit this to run interleaved lanes of
// the SAME stream — lane j holds state position j and advances by the
// stride-k map each iteration — which removes the serial state
// dependence from the loop body. The k lane updates are independent
// multiply-adds the CPU pipelines can overlap (and a vectorizing
// compiler can widen); outputs are written in stream order, and the
// ziggurat kernels replay any draw that leaves the fast path through
// the scalar sampler in-order, so every kernel stays draw-for-draw
// identical to len(dst) scalar calls (TestFillKernelsMatchScalar,
// TestLaneSplitMatchesScalar) and batched and scalar code paths share
// one stream definition.

// laneSplitMin is the batch length below which the kernels fall back
// to the plain serial loop: the stride constants cost a handful of
// multiply-adds to set up, which only amortizes over enough elements.
const laneSplitMin = 8

// pcgU53 folds a hi/lo pair of 32-bit outputs into a uniform [0, 1)
// float64 with 53 random bits, exactly as Float64 does.
func pcgU53(hi, lo uint32) float64 {
	return float64((uint64(hi)<<32|uint64(lo))>>11) * 0x1p-53
}

// FillFloat64 fills dst with uniform [0, 1) variates, identical to
// len(dst) sequential Float64 calls. Batches of laneSplitMin or more
// run 8 interleaved state lanes (4 elements per iteration: each
// element consumes a hi and a lo 32-bit draw).
func (p *PCG) FillFloat64(dst []float64) {
	if len(dst) < laneSplitMin {
		local := *p
		for i := range dst {
			dst[i] = local.Float64()
		}
		*p = local
		return
	}
	// Stride constants A_k, C_k for k = 1..8 under this stream's
	// increment; a[8]/c[8] is the per-iteration lane advance.
	inc := p.inc
	var a, c [9]uint64
	a[0], c[0] = 1, 0
	for k := 1; k <= 8; k++ {
		a[k] = a[k-1] * pcgMult
		c[k] = c[k-1]*pcgMult + inc
	}
	s := p.state
	s0 := s
	s1 := a[1]*s + c[1]
	s2 := a[2]*s + c[2]
	s3 := a[3]*s + c[3]
	s4 := a[4]*s + c[4]
	s5 := a[5]*s + c[5]
	s6 := a[6]*s + c[6]
	s7 := a[7]*s + c[7]
	a8, c8 := a[8], c[8]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = pcgU53(pcgOutput(s0), pcgOutput(s1))
		dst[i+1] = pcgU53(pcgOutput(s2), pcgOutput(s3))
		dst[i+2] = pcgU53(pcgOutput(s4), pcgOutput(s5))
		dst[i+3] = pcgU53(pcgOutput(s6), pcgOutput(s7))
		s0 = a8*s0 + c8
		s1 = a8*s1 + c8
		s2 = a8*s2 + c8
		s3 = a8*s3 + c8
		s4 = a8*s4 + c8
		s5 = a8*s5 + c8
		s6 = a8*s6 + c8
		s7 = a8*s7 + c8
	}
	// s0 advanced 8 states per iteration from position 0, so it is
	// exactly the next unconsumed state for the scalar tail.
	p.state = s0
	for ; i < len(dst); i++ {
		dst[i] = p.Float64()
	}
}

// FillNorm fills dst with standard normal variates, identical to
// len(dst) sequential NormFloat64 calls. Batches run 4 interleaved
// lanes through the ziggurat fast path (one 32-bit draw, one table
// compare per lane); a chunk with any lane outside the fast path keeps
// its fast prefix and replays the first rejecting draw through the
// scalar sampler, so tail and wedge draws consume the stream in order.
func (p *PCG) FillNorm(dst []float64) {
	if len(dst) < laneSplitMin {
		local := *p
		for i := range dst {
			dst[i] = local.NormFloat64()
		}
		*p = local
		return
	}
	inc := p.inc
	a1, c1 := uint64(pcgMult), inc
	a2, c2 := a1*pcgMult, c1*pcgMult+inc
	a3, c3 := a2*pcgMult, c2*pcgMult+inc
	a4, c4 := a3*pcgMult, c3*pcgMult+inc
	s := p.state
	i := 0
	for i+4 <= len(dst) {
		t1 := a1*s + c1
		t2 := a2*s + c2
		t3 := a3*s + c3
		j0 := int32(pcgOutput(s))
		j1 := int32(pcgOutput(t1))
		j2 := int32(pcgOutput(t2))
		j3 := int32(pcgOutput(t3))
		i0, i1, i2, i3 := j0&127, j1&127, j2&127, j3&127
		x0 := float64(j0) * znW[i0]
		x1 := float64(j1) * znW[i1]
		x2 := float64(j2) * znW[i2]
		x3 := float64(j3) * znW[i3]
		if absInt32(j0) < znK[i0] && absInt32(j1) < znK[i1] &&
			absInt32(j2) < znK[i2] && absInt32(j3) < znK[i3] {
			dst[i] = x0
			dst[i+1] = x1
			dst[i+2] = x2
			dst[i+3] = x3
			s = a4*s + c4
			i += 4
			continue
		}
		// Slow path (~5% of chunks): find the first rejecting lane,
		// keep the fast results before it, and re-enter after the
		// scalar draw with whatever state it left behind.
		f := 0
		switch {
		case absInt32(j0) >= znK[i0]:
			p.state = s
		case absInt32(j1) >= znK[i1]:
			dst[i] = x0
			p.state = t1
			f = 1
		case absInt32(j2) >= znK[i2]:
			dst[i], dst[i+1] = x0, x1
			p.state = t2
			f = 2
		default:
			dst[i], dst[i+1], dst[i+2] = x0, x1, x2
			p.state = t3
			f = 3
		}
		dst[i+f] = p.NormFloat64()
		i += f + 1
		s = p.state
	}
	p.state = s
	for ; i < len(dst); i++ {
		dst[i] = p.NormFloat64()
	}
}

// FillExp fills dst with Exp(1) variates, identical to len(dst)
// sequential ExpFloat64 calls. Same 4-lane speculative structure as
// FillNorm over the exponential ziggurat.
func (p *PCG) FillExp(dst []float64) {
	if len(dst) < laneSplitMin {
		local := *p
		for i := range dst {
			dst[i] = local.ExpFloat64()
		}
		*p = local
		return
	}
	inc := p.inc
	a1, c1 := uint64(pcgMult), inc
	a2, c2 := a1*pcgMult, c1*pcgMult+inc
	a3, c3 := a2*pcgMult, c2*pcgMult+inc
	a4, c4 := a3*pcgMult, c3*pcgMult+inc
	s := p.state
	i := 0
	for i+4 <= len(dst) {
		t1 := a1*s + c1
		t2 := a2*s + c2
		t3 := a3*s + c3
		j0 := pcgOutput(s)
		j1 := pcgOutput(t1)
		j2 := pcgOutput(t2)
		j3 := pcgOutput(t3)
		i0, i1, i2, i3 := j0&255, j1&255, j2&255, j3&255
		x0 := float64(j0) * zeW[i0]
		x1 := float64(j1) * zeW[i1]
		x2 := float64(j2) * zeW[i2]
		x3 := float64(j3) * zeW[i3]
		if j0 < zeK[i0] && j1 < zeK[i1] && j2 < zeK[i2] && j3 < zeK[i3] {
			dst[i] = x0
			dst[i+1] = x1
			dst[i+2] = x2
			dst[i+3] = x3
			s = a4*s + c4
			i += 4
			continue
		}
		f := 0
		switch {
		case j0 >= zeK[i0]:
			p.state = s
		case j1 >= zeK[i1]:
			dst[i] = x0
			p.state = t1
			f = 1
		case j2 >= zeK[i2]:
			dst[i], dst[i+1] = x0, x1
			p.state = t2
			f = 2
		default:
			dst[i], dst[i+1], dst[i+2] = x0, x1, x2
			p.state = t3
			f = 3
		}
		dst[i+f] = p.ExpFloat64()
		i += f + 1
		s = p.state
	}
	p.state = s
	for ; i < len(dst); i++ {
		dst[i] = p.ExpFloat64()
	}
}

// ExpFloat64 returns an Exp(1) variate via the ziggurat method.
func (p *PCG) ExpFloat64() float64 {
	for {
		j := p.Uint32()
		i := j & 255
		x := float64(j) * zeW[i]
		if j < zeK[i] {
			return x
		}
		if i == 0 {
			return zeR - math.Log(p.Float64())
		}
		if zeF[i]+p.Float64()*(zeF[i-1]-zeF[i]) < math.Exp(-x) {
			return x
		}
	}
}

func absInt32(j int32) uint32 {
	if j < 0 {
		return uint32(-int64(j))
	}
	return uint32(j)
}
