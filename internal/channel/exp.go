package channel

import "math"

// exp is e**x as math.Exp's amd64 assembly computes it on a CPU with
// fused multiply-add, each fused step written as math.FMA, which rounds
// once on every build (in hardware where there is an FMA unit, in
// software where not). math.Exp itself takes one of three paths by
// build and CPU — that assembly, the same assembly without FMA, or the
// portable Go code — which differ in the last bit, and the fading
// process carries such a bit from advance to advance: a 386 build, or an
// amd64 one under GODEBUG=cpu.fma=off, captured a different LINK section
// than an FMA host, though every output byte agreed. Following the FMA
// path keeps every value an FMA host computed (TestExpFollowsTheFMAPath).
func exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x > overflow:
		return math.Inf(1)
	}
	t := x * log2e
	if t <= -1075.5 {
		return 0 // 2**fk underflows whatever the reduced factor is
	}
	// fk is t rounded half to even, as the assembly's CVTSD2SL rounds:
	// adding 1.5·2**52 leaves no fraction bits, and |t| < 2**51 here.
	fk := (t + 0x1.8p52) - 0x1.8p52
	x = math.FMA(-fk, ln2U, x)
	x = math.FMA(-fk, ln2L, x)
	x *= 0.0625
	p := math.FMA(2.4801587301587301587e-5, x, 1.9841269841269841270e-4)
	p = math.FMA(p, x, 1.3888888888888888889e-3)
	p = math.FMA(p, x, 8.3333333333333333333e-3)
	p = math.FMA(p, x, 4.1666666666666666667e-2)
	p = math.FMA(p, x, 1.6666666666666666667e-1)
	p = math.FMA(p, x, 0.5)
	p = math.FMA(p, x, 1)
	x *= p
	for range 3 {
		x *= x + 2
	}
	x = math.FMA(x+2, x, 1)
	// x · 2**fk, in two steps when 2**fk is subnormal.
	switch {
	case fk >= 0x400:
		return math.Inf(1)
	case fk <= -0x3FF:
		return x * math.Float64frombits(uint64(fk+0x3FF+0x3FE)<<52) * math.Float64frombits(1<<52)
	}
	return x * math.Float64frombits(uint64(fk+0x3FF)<<52)
}
