package channel

import (
	"math"
	"math/rand"
	"time"

	"rica/internal/sim"
)

// Config parameterizes the composite SNR process. DefaultConfig returns
// values calibrated so that a link spends meaningful time in every class
// across the 0–250 m usable range (see calibration notes in DESIGN.md §2).
type Config struct {
	// Range is the hard radio reception range in metres (paper: 250 m).
	Range float64
	// PathLossExponent n in the log-distance law (3.0 ≈ urban outdoor).
	PathLossExponent float64
	// RefSNR is the median SNR in dB at 1 m. With the default exponent it
	// leaves the range edge around the class B/C boundary.
	RefSNR float64
	// ShadowSigma is the log-normal shadowing standard deviation in dB.
	ShadowSigma float64
	// ShadowTau is the shadowing decorrelation time constant *at
	// RefSpeed*. Shadowing decorrelates over distance, so the effective
	// time constant scales inversely with how fast the pair moves:
	// τ_eff = ShadowTau · RefSpeed / max(v_rel, MinSpeed).
	ShadowTau time.Duration
	// FadeTau is the fast-fading (effective channel class, as tracked by
	// ABICM) decorrelation time constant at RefSpeed. Like Jakes' Doppler
	// spread, it scales inversely with relative speed; a static pair's
	// channel is nearly frozen, which is exactly why the paper's static
	// link-state scenario performs well while mobile ones collapse.
	FadeTau time.Duration
	// RefSpeed is the relative pair speed (m/s) at which ShadowTau and
	// FadeTau apply verbatim.
	RefSpeed float64
	// MinSpeed floors the speed scaling: even a parked pair sees slow
	// channel drift from environmental motion.
	MinSpeed float64
	// ThresholdA/B/C are the SNR quantizer boundaries in dB; SNR below
	// ThresholdC is class D (a link in range never vanishes from fading).
	ThresholdA, ThresholdB, ThresholdC float64
	// HysteresisDB is the margin above a boundary the SNR must reach
	// before the quantizer *upgrades* a link's class (downgrades apply
	// immediately). Adaptive coding/modulation schemes use exactly this to
	// keep near-boundary links from flapping between rates.
	HysteresisDB float64
}

// DefaultConfig returns the calibration used by all experiments.
func DefaultConfig() Config {
	return Config{
		Range:            250,
		PathLossExponent: 3.0,
		RefSNR:           85, // median 25 dB at 100 m, ~13 dB at 250 m
		ShadowSigma:      8,
		ShadowTau:        8 * time.Second,
		FadeTau:          time.Second,
		RefSpeed:         10,   // m/s (36 km/h)
		MinSpeed:         0.02, // parked pairs are essentially frozen (no Doppler)
		ThresholdA:       21,
		ThresholdB:       14,
		ThresholdC:       7,
		HysteresisDB:     1.5,
	}
}

// Link is the fading state of one unordered terminal pair. It is advanced
// lazily: each query at a later virtual time evolves the shadowing and
// fading processes by the elapsed interval. Queries at or before the last
// update time return the current state unchanged, so all events within one
// simulator instant observe a consistent channel.
//
// Field order is layout, not taste: at N=500 a class query is a cache
// miss on the link, so what every query reads — the advance clock, the
// three process values, the owning model's per-instant class memo and
// the stream pointer — sits in the first 64 bytes (held by
// TestLinkHotFieldsShareFirstCacheLine), and a model-owned link's stream
// record follows in the same allocation.
type Link struct {
	last time.Duration

	shadow float64 // dB, N(0, ShadowSigma²) marginally
	fi, fq float64 // fading quadratures, N(0,1) marginally

	// memoGen/memoClass are the owning Model's per-instant class memo:
	// the class ClassAt returned at the snapshot generation memoGen (see
	// Model.Class). A link outside a Model never stamps it; generation 0
	// is never current, so the zero value cannot false-hit.
	memoGen   uint64
	memoClass Class

	rng *rand.Rand
	cfg *Config

	lastClass Class // hysteresis memory; ClassNone until first quantization

	// lastD/lastPathLoss memoize the deterministic log-distance term of
	// the most recent SNR evaluation. Keyed on the exact distance bits
	// (d ≥ 1 always, so the zero value can never false-hit), the memo is
	// bit-exact; it pays off whenever neither endpoint moved between
	// queries — parked pairs and static topologies.
	lastD        float64
	lastPathLoss float64

	// stream is the record of a model-owned link's stream, which rng
	// draws from (Model.linkAt).
	stream sim.StreamMem
}

// init sets a new link l on rng and draws its initial state from the
// stationary distribution, so t = 0 is not special.
func (l *Link) init(cfg *Config, rng *rand.Rand) {
	l.cfg, l.rng = cfg, rng
	l.shadow = rng.NormFloat64() * cfg.ShadowSigma
	l.fi = rng.NormFloat64()
	l.fq = rng.NormFloat64()
}

// advance evolves shadowing and fading to time at. relSpeed is the pair's
// current relative speed in m/s; it scales both processes' decorrelation
// (Doppler): fast movers see fast fading, parked pairs a nearly frozen
// channel. The current speed is applied across the whole elapsed interval,
// a first-order approximation adequate for the sub-second event spacing
// the simulator produces.
func (l *Link) advance(at time.Duration, relSpeed float64) {
	dt := at - l.last
	if dt <= 0 {
		return
	}
	l.last = at

	speedScale := relSpeed
	if speedScale < l.cfg.MinSpeed {
		speedScale = l.cfg.MinSpeed
	}

	// AR(1) / Ornstein-Uhlenbeck update preserving the stationary law:
	// x' = ρx + sqrt(1-ρ²)·σ·N(0,1), ρ = exp(−dt/τ), τ stretched by
	// RefSpeed/speedScale.
	stretch := l.cfg.RefSpeed / speedScale
	rhoS := exp(-dt.Seconds() / (l.cfg.ShadowTau.Seconds() * stretch))
	sigS := math.Sqrt(1 - rhoS*rhoS)
	rhoF := exp(-dt.Seconds() / (l.cfg.FadeTau.Seconds() * stretch))
	sigF := math.Sqrt(1 - rhoF*rhoF)
	l.shadow = rhoS*l.shadow + sigS*l.cfg.ShadowSigma*l.rng.NormFloat64()
	l.fi = rhoF*l.fi + sigF*l.rng.NormFloat64()
	l.fq = rhoF*l.fq + sigF*l.rng.NormFloat64()
}

// SNR reports the instantaneous SNR in dB at distance d metres and virtual
// time at, for a pair with relative speed relSpeed m/s. It does not apply
// the range cutoff; see ClassAt.
func (l *Link) SNR(d, relSpeed float64, at time.Duration) float64 {
	l.advance(at, relSpeed)
	if d < 1 {
		d = 1 // log-distance law reference distance
	}
	if d != l.lastD {
		l.lastPathLoss = 10 * l.cfg.PathLossExponent * math.Log10(d)
		l.lastD = d
	}
	pathLoss := l.lastPathLoss
	// Rayleigh envelope power in dB: the two quadratures are unit normal,
	// so (fi²+fq²)/2 is Exp(1) with mean 1 (0 dB average fade).
	fadePow := (l.fi*l.fi + l.fq*l.fq) / 2
	if fadePow < 1e-12 {
		fadePow = 1e-12 // bound the deepest representable fade at −120 dB
	}
	fade := 10 * math.Log10(fadePow)
	return l.cfg.RefSNR - pathLoss + l.shadow + fade
}

// ClassAt reports the channel class for the pair at distance d and time at:
// ClassNone beyond the radio range, otherwise the quantized SNR class with
// upgrade hysteresis (a link must clear a boundary by HysteresisDB before
// its rate steps up; degradations bite immediately).
func (l *Link) ClassAt(d, relSpeed float64, at time.Duration) Class {
	if d > l.cfg.Range {
		l.advance(at, relSpeed) // keep the process in sync regardless
		l.lastClass = ClassNone
		return ClassNone
	}
	snr := l.SNR(d, relSpeed, at)
	raw := ClassForSNR(snr, l.cfg)
	if l.lastClass.Usable() && raw < l.lastClass {
		// Candidate upgrade: hold the old class unless the SNR clears the
		// candidate's lower boundary by the hysteresis margin.
		if snr < l.upgradeBoundary(raw)+l.cfg.HysteresisDB {
			raw = l.lastClass
		}
	}
	l.lastClass = raw
	return raw
}

// upgradeBoundary is the lower SNR boundary of class c.
func (l *Link) upgradeBoundary(c Class) float64 {
	switch c {
	case ClassA:
		return l.cfg.ThresholdA
	case ClassB:
		return l.cfg.ThresholdB
	case ClassC:
		return l.cfg.ThresholdC
	default:
		return -1e9 // class D has no lower boundary
	}
}
