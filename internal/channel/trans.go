package channel

import (
	"math"
	"time"

	"rica/internal/obs"
)

// The AR(1) advance of every fading link computes four speed-scaled
// coefficients — ρ_S = exp(−dt/τ_S), sqrt(1−ρ_S²), ρ_F = exp(−dt/τ_F),
// sqrt(1−ρ_F²) — from just two inputs: the elapsed interval dt and the
// floored speed scale. Both inputs can repeat across the link
// population (quantized airtimes and timer periods produce recurring
// event spacings, per-leg speeds are constant between waypoints, and
// every parked pair shares the MinSpeed floor), while the coefficients
// cost two exponentials and two square roots each time. How often they
// do repeat is measured below, at transCacheBits.
//
// transCache memoizes the mapping. The cache is exact, not approximate:
// entries are keyed on the exact bit patterns of (dt, speedScale), and a
// hit returns the exact float64 outputs the direct computation produced
// when the entry was filled — identical inputs give identical IEEE-754
// outputs, so a run with the cache is bit-for-bit the run without it.
// The table is direct-mapped; a colliding key simply overwrites, which
// keeps lookups allocation-free and O(1).
//
// One cache is shared by all links of a Model (the coefficients depend
// only on the shared Config), so a hot spacing computed for one pair
// serves every other pair that sees it.

// transCacheBits sizes the direct-mapped table: 512 entries, 24 KB. With
// moving terminals the keys mostly do not recur — measured hit ratio
// 0.7 % on the 500 s paper cell (26,010 of 3.54 M advances) and 7 % on
// metro-500 — so whether the table earns its probe is an open question
// (ROADMAP item 5); the speed-0 cells, where every pair shares the
// MinSpeed floor, have not been measured.
const transCacheBits = 9

type transEntry struct {
	dt    int64  // exact key: advance interval (ns); 0 marks an empty slot
	speed uint64 // exact key: math.Float64bits of the floored speed scale

	rhoS, sigS float64 // shadowing: exp(−dt/τ_S), sqrt(1−ρ_S²)
	rhoF, sigF float64 // fading:    exp(−dt/τ_F), sqrt(1−ρ_F²)
}

// transCache is the direct-mapped coefficient table. The zero value is
// ready to use: advance never probes with dt ≤ 0, so the zero-keyed
// empty slots can never produce a false hit.
type transCache struct {
	entries [1 << transCacheBits]transEntry
	obs     *obs.Registry // hit/miss counters; nil-safe, set via Model.SetObs
}

// coeffs returns the four AR(1) coefficients for (dt, speedScale),
// serving exact-key hits from the table and filling it on miss.
func (c *transCache) coeffs(cfg *Config, dt time.Duration, speedScale float64) (rhoS, sigS, rhoF, sigF float64) {
	sb := math.Float64bits(speedScale)
	h := (uint64(dt)*0x9E3779B97F4A7C15 ^ sb*0xBF58476D1CE4E5B9) >> (64 - transCacheBits)
	e := &c.entries[h]
	if e.dt == int64(dt) && e.speed == sb {
		c.obs.Inc(obs.CTransHits)
		return e.rhoS, e.sigS, e.rhoF, e.sigF
	}
	c.obs.Inc(obs.CTransMisses)
	rhoS, sigS, rhoF, sigF = arCoeffs(cfg, dt, speedScale)
	*e = transEntry{dt: int64(dt), speed: sb, rhoS: rhoS, sigS: sigS, rhoF: rhoF, sigF: sigF}
	return rhoS, sigS, rhoF, sigF
}

// arCoeffs is the direct computation the cache memoizes — kept as one
// function so the cached and uncached paths cannot drift apart.
func arCoeffs(cfg *Config, dt time.Duration, speedScale float64) (rhoS, sigS, rhoF, sigF float64) {
	stretch := cfg.RefSpeed / speedScale
	tauS := cfg.ShadowTau.Seconds() * stretch
	tauF := cfg.FadeTau.Seconds() * stretch

	rhoS = math.Exp(-dt.Seconds() / tauS)
	sigS = math.Sqrt(1 - rhoS*rhoS)
	rhoF = math.Exp(-dt.Seconds() / tauF)
	sigF = math.Sqrt(1 - rhoF*rhoF)
	return rhoS, sigS, rhoF, sigF
}
