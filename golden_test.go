package rica_test

import (
	"fmt"
	"testing"
	"time"

	"rica"
)

// goldenDuration keeps the 15-run grid fast enough for CI while long
// enough that every protocol exchanges routes, breaks links, and drops
// packets — the behaviours a refactor could silently perturb.
const goldenDuration = 10 * time.Second

// golden holds the pre-refactor fingerprints: one per protocol × seed,
// captured from commit 198e2b1 (before the spatial-grid radio core), so
// TestGoldenBitIdentical proves the grid/snapshot path reproduces the
// brute-force scans bit-for-bit. Regenerate with
// `go test -run TestGoldenGenerate -v` ONLY for a change that is meant
// to alter simulation results, and say so in the commit message.
var golden = map[string]string{
	"AODV/1":      "gen=1016 del=623 drop[congestion]=79 drop[no-route]=255 drop[link-break]=3 delay=388189915 ratio=0x1.39f3e7cf9f3e8p-01 ovh=0x1.c2b999999999ap+15 ctl=2165 ctldrop=0 lt=0x1.dfe88700fe2p+16 hops=0x1.dcdde4e12e6efp+01 csi=0x1.52d3de23ff035p+03 hopsall=0x1.5666666666666p+01 csiall=0x1.e54cccccccccap+02 maxhops=8 p50=264032619 p99=1396730267 max=1600711396 goodput=0x1.f266666666666p+17",
	"AODV/2":      "gen=1023 del=680 drop[congestion]=50 drop[no-route]=254 drop[link-break]=5 delay=389415249 ratio=0x1.5455154551545p-01 ovh=0x1.eb93333333333p+15 ctl=2466 ctldrop=2 lt=0x1.0f04afbfa1236p+17 hops=0x1.c727272727272p+01 csi=0x1.1545641c6e5a1p+03 hopsall=0x1.3ee65fc604a8cp+01 csiall=0x1.857afe6fc28a6p+02 maxhops=7 p50=243467026 p99=2218943883 max=2333242360 goodput=0x1.1p+18",
	"AODV/3":      "gen=1014 del=719 drop[congestion]=89 drop[no-route]=141 drop[link-break]=7 delay=558930549 ratio=0x1.6b0b9d089575ap-01 ovh=0x1.ae53333333333p+15 ctl=2045 ctldrop=3 lt=0x1.c54d1731bb9a9p+16 hops=0x1.a6741283bd1p+01 csi=0x1.3f81df715a231p+03 hopsall=0x1.4fcc95f549e87p+01 csiall=0x1.f63faafec1ea9p+02 maxhops=7 p50=304287171 p99=2322355549 max=2670266504 goodput=0x1.1f9999999999ap+18",
	"RICA/1":      "gen=1016 del=886 drop[congestion]=56 drop[no-route]=33 drop[link-break]=16 delay=321995136 ratio=0x1.be7cf9f3e7cfap-01 ovh=0x1.8556666666666p+17 ctl=10135 ctldrop=54 lt=0x1.493aac8bfc692p+17 hops=0x1.208171d78c6cap+02 csi=0x1.2098d652cc632p+03 hopsall=0x1.0865436c3cf6fp+02 csiall=0x1.0798ab871a9c5p+03 maxhops=11 p50=214701280 p99=1364085023 max=1472348814 goodput=0x1.6266666666666p+18",
	"RICA/2":      "gen=1023 del=845 drop[congestion]=25 drop[no-route]=119 drop[link-break]=9 delay=274494182 ratio=0x1.a6e9ba6e9ba6fp-01 ovh=0x1.46eb333333333p+17 ctl=8134 ctldrop=148 lt=0x1.6e9c08f285269p+17 hops=0x1.4964477f8ba9fp+02 csi=0x1.196d32c9b8d1dp+03 hopsall=0x1.18d1508b8b07bp+02 csiall=0x1.e0123901e891dp+02 maxhops=69 p50=163839999 p99=2133524414 max=3178069271 goodput=0x1.52p+18",
	"RICA/3":      "gen=1014 del=875 drop[congestion]=49 drop[no-route]=60 drop[link-break]=6 delay=318744940 ratio=0x1.b9d089575a61fp-01 ovh=0x1.4adb333333333p+17 ctl=8330 ctldrop=110 lt=0x1.614007697221bp+17 hops=0x1.435d548d9ac53p+02 csi=0x1.21eb851eb852ap+03 hopsall=0x1.2052bf5a814bp+02 csiall=0x1.02a55eee9a33dp+03 maxhops=9 p50=207187790 p99=2217806906 max=2278506505 goodput=0x1.5ep+18",
	"BGCA/1":      "gen=1016 del=673 drop[congestion]=99 drop[no-route]=226 delay=414254134 ratio=0x1.53264c993264dp-01 ovh=0x1.59dcccccccccdp+16 ctl=3510 ctldrop=19 lt=0x1.42b470e94029ap+17 hops=0x1.062e6839d197cp+02 csi=0x1.11a06aa140dd8p+03 hopsall=0x1.ab9b7267a19a7p+01 csiall=0x1.b13965b909ca6p+02 maxhops=9 p50=198958936 p99=2199694319 max=2285126640 goodput=0x1.0d33333333333p+18",
	"BGCA/2":      "gen=1023 del=764 drop[congestion]=31 drop[no-route]=202 delay=272522162 ratio=0x1.7e5f97e5f97e6p-01 ovh=0x1.5ee999999999ap+16 ctl=3599 ctldrop=51 lt=0x1.58188e68923d7p+17 hops=0x1.0ca632ee936f4p+02 csi=0x1.facce83fe7fcp+02 hopsall=0x1.a09c1dc90d186p+01 csiall=0x1.89b5895f4304ep+02 maxhops=8 p50=147895518 p99=1451173395 max=2161699415 goodput=0x1.319999999999ap+18",
	"BGCA/3":      "gen=1014 del=843 drop[congestion]=38 drop[no-route]=118 delay=317930516 ratio=0x1.a9a8245ae3381p-01 ovh=0x1.5c76666666666p+16 ctl=3188 ctldrop=37 lt=0x1.596850f12a21fp+17 hops=0x1.47841982470f8p+02 csi=0x1.32957b6d36ebap+03 hopsall=0x1.19d15c822d9d1p+02 csiall=0x1.07896cd3b02c8p+03 maxhops=8 p50=214844403 p99=2106303088 max=2307884272 goodput=0x1.5133333333333p+18",
	"ABR/1":       "gen=1016 del=914 drop[congestion]=57 drop[no-route]=23 delay=373997011 ratio=0x1.cc993264c9932p-01 ovh=0x1.b486666666666p+15 ctl=1906 ctldrop=1 lt=0x1.1475beca88c5dp+17 hops=0x1.038047b3d0f2p+02 csi=0x1.490fd77cf6bf4p+03 hopsall=0x1.e84e4b34062e6p+01 csiall=0x1.354f03cfc99b8p+03 maxhops=7 p50=265816370 p99=1340439336 max=2444044337 goodput=0x1.6d9999999999ap+18",
	"ABR/2":       "gen=1023 del=818 drop[congestion]=31 drop[no-route]=147 delay=274507502 ratio=0x1.9966599665996p-01 ovh=0x1.c4ccccccccccdp+15 ctl=2365 ctldrop=5 lt=0x1.320638adfe4e2p+17 hops=0x1.a9778cd4cfcdfp+01 csi=0x1.d5d3c904fb785p+02 hopsall=0x1.5fbe3367d6e02p+01 csiall=0x1.87005ec03745dp+02 maxhops=6 p50=163840000 p99=2158435811 max=2242708695 goodput=0x1.4733333333333p+18",
	"ABR/3":       "gen=1014 del=884 drop[congestion]=69 drop[no-route]=23 delay=456686346 ratio=0x1.be5be5be5be5cp-01 ovh=0x1.aa2cccccccccdp+15 ctl=1755 ctldrop=0 lt=0x1.051d97127f4f1p+17 hops=0x1.198e7ac98e7adp+02 csi=0x1.6a3356c90023dp+03 hopsall=0x1.0779b47582193p+02 csiall=0x1.52285f59795ecp+03 maxhops=8 p50=385802976 p99=1529206998 max=1754312103 goodput=0x1.619999999999ap+18",
	"LinkState/1": "gen=1016 del=785 drop[congestion]=123 drop[link-break]=78 delay=208384288 ratio=0x1.8b972e5cb972ep-01 ovh=0x1.b0f4p+19 ctl=12014 ctldrop=2141 lt=0x1.729b28b66450cp+17 hops=0x1.00537c3feb20fp+02 csi=0x1.adbb916f2079p+02 hopsall=0x1.f0ae79825632ep+01 csiall=0x1.a11a7b9611a8ap+02 maxhops=28 p50=125610666 p99=1550304211 max=2523766571 goodput=0x1.3ap+18",
	"LinkState/2": "gen=1023 del=938 drop[congestion]=21 drop[link-break]=32 delay=153800992 ratio=0x1.d5755d5755d57p-01 ovh=0x1.a2f399999999ap+19 ctl=11171 ctldrop=2148 lt=0x1.6eee1d167d3d4p+17 hops=0x1.036958f8e76fep+02 csi=0x1.b05f8b521dd4ap+02 hopsall=0x1.f5ece24aea0aep+01 csiall=0x1.a38a2999c3edfp+02 maxhops=27 p50=101043183 p99=808836169 max=1244543386 goodput=0x1.7733333333333p+18",
	"LinkState/3": "gen=1014 del=928 drop[congestion]=17 drop[link-break]=29 delay=233634023 ratio=0x1.d49370997fbf6p-01 ovh=0x1.c9e0ccccccccdp+19 ctl=12434 ctldrop=1985 lt=0x1.723c07269d518p+17 hops=0x1.28469ee58469fp+02 csi=0x1.f2f786884c472p+02 hopsall=0x1.1fcd8932fd5f2p+02 csiall=0x1.e56a14655943fp+02 maxhops=35 p50=149081864 p99=1251172725 max=1653589015 goodput=0x1.7333333333333p+18",
}

// fingerprint is rica.Fingerprint: an exact, platform-independent
// rendering (integers verbatim, floats in hex notation so equality means
// bit-equality, durations in nanoseconds). The recorded goldens above
// are outputs of that public format.
func fingerprint(s rica.Summary) string { return rica.Fingerprint(s) }

func goldenRun(tb testing.TB, p rica.Protocol, seed int64) rica.Summary {
	return mustRun(tb, paperRun(tb, p, 36, 10, goldenDuration, seed), rica.RunOptions{})
}

// TestGoldenBitIdentical checks every protocol at three seeds against the
// recorded pre-refactor fingerprints. Any mismatch means the simulation's
// event sequence changed — for a pure performance refactor that is a bug.
func TestGoldenBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("15 × 10 s simulations")
	}
	t.Parallel()
	for _, p := range rica.AllProtocols() {
		for seed := int64(1); seed <= 3; seed++ {
			p, seed := p, seed
			name := fmt.Sprintf("%s/%d", p, seed)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				want, ok := golden[name]
				if !ok {
					t.Fatalf("no golden fingerprint recorded for %s", name)
				}
				if got := fingerprint(goldenRun(t, p, seed)); got != want {
					t.Errorf("summary diverged from pre-refactor golden\n got: %s\nwant: %s", got, want)
				}
			})
		}
	}
}

// TestGoldenGenerate prints the current fingerprint table in the format
// of the golden map, for regeneration after an intentional behaviour
// change: go test -run TestGoldenGenerate -v
func TestGoldenGenerate(t *testing.T) {
	if !testing.Verbose() || testing.Short() {
		t.Skip("generator; run with -v")
	}
	for _, p := range rica.AllProtocols() {
		for seed := int64(1); seed <= 3; seed++ {
			fmt.Printf("GOLDEN\t%s/%d\t%s\n", p, seed, fingerprint(goldenRun(t, p, seed)))
		}
	}
}
