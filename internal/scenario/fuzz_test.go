package scenario_test

import (
	"math/rand"
	"testing"
	"time"

	"rica"
	"rica/internal/scenario"
)

// The fuzz harness runs whole simulations per input, so every input must
// be cheap: parse, bound the work, run under the invariant harness at a
// truncated horizon. Inputs that fail to parse are the negative half of
// Validate's job and simply end the case; inputs that parse but violate
// a simulation invariant (conservation, ledger agreement, replay
// determinism, packet leak) — or panic — are fuzzing finds.

// verifyUnder runs spec under the invariant harness and fails the test
// with the offending spec attached.
func verifyUnder(t *testing.T, spec rica.Scenario, p rica.Protocol, horizon time.Duration) {
	t.Helper()
	if _, err := rica.VerifyScenario(rica.ScenarioRun{
		Scenario: spec, Protocol: p, MaxDuration: horizon,
	}); err != nil {
		js, _ := spec.JSON()
		t.Fatalf("invariants violated under %s:\n%s\n%v", p, js, err)
	}
}

// tooHeavy bounds the simulation work one fuzz input may demand. The
// engine itself handles far bigger scenarios; a fuzzing round just has
// to execute thousands of inputs, so anything slow is skipped rather
// than simulated. Mutator-generated specs always pass these bounds —
// only hand-mangled corpus bytes land here.
func tooHeavy(s rica.Scenario) bool {
	if s.Topology.NodeCount() > 64 {
		return true
	}
	tr := s.Traffic
	if tr.Rate > 200 || tr.Flows > 16 || len(tr.Pairs) > 16 || tr.Rumors > 16 || tr.Pushes > 16 {
		return true
	}
	// A sub-millisecond burst cycle degenerates into an event storm.
	if tr.Kind == scenario.TrafficOnOff &&
		(tr.On < scenario.Duration(5*time.Millisecond) || tr.Off < scenario.Duration(5*time.Millisecond)) {
		return true
	}
	if len(s.Outages) > 64 || len(s.Adversaries) > 16 {
		return true
	}
	jam := 0.0
	for _, a := range s.Adversaries {
		jam += a.Rate
	}
	if jam > 500 {
		return true
	}
	if c := s.Churn; c != nil && c.Nodes*c.Waves > 2000 {
		return true
	}
	return false
}

// FuzzScenario feeds arbitrary bytes through the JSON parser and runs
// every spec that survives validation under the full invariant harness.
// Seeds cover the adversarial catalog plus mutator-drawn specs; the
// checked-in corpus under testdata/fuzz/FuzzScenario keeps regression
// inputs replaying on every plain `go test`.
func FuzzScenario(f *testing.F) {
	for _, name := range []string{"chain-10", "grid-8x8", "jammer-grid", "byzantine-drop", "churn-storm"} {
		spec, err := scenario.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		js, err := spec.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	rng := rand.New(rand.NewSource(11))
	var m scenario.Mutator
	for i := 0; i < 4; i++ {
		js, err := m.Random(rng).JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	protocols := rica.AllProtocols()
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := scenario.ParseJSON(data)
		if err != nil {
			return // rejected inputs are Validate working as intended
		}
		if tooHeavy(spec) {
			return
		}
		// Derive the protocol from the input so the corpus exercises all
		// five protocols without five separate fuzz targets.
		sum := 0
		for _, b := range data {
			sum += int(b)
		}
		verifyUnder(t, spec, protocols[sum%len(protocols)], time.Second)
	})
}

// TestMutatorAlwaysValid pins the mutator's contract: every Random spec
// and every Mutate result validates and compiles, whatever the rng does.
func TestMutatorAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var m scenario.Mutator
	spec := m.Random(rng)
	for i := 0; i < 300; i++ {
		if err := spec.Validate(); err != nil {
			t.Fatalf("iteration %d produced an invalid spec: %v", i, err)
		}
		if _, err := spec.Compile(); err != nil {
			t.Fatalf("iteration %d produced an uncompilable spec: %v", i, err)
		}
		if rng.Intn(4) == 0 {
			spec = m.Random(rng)
		} else {
			spec = m.Mutate(spec, rng)
		}
	}
}

// TestMutatorIsReproducible pins that equal rng seeds replay the same
// spec stream — a fuzzing failure can always be re-derived.
func TestMutatorIsReproducible(t *testing.T) {
	var m scenario.Mutator
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	sa, sb := m.Random(a), m.Random(b)
	for i := 0; i < 50; i++ {
		ja, _ := sa.JSON()
		jb, _ := sb.JSON()
		if string(ja) != string(jb) {
			t.Fatalf("iteration %d diverged:\n%s\nvs\n%s", i, ja, jb)
		}
		sa, sb = m.Mutate(sa, a), m.Mutate(sb, b)
	}
}

// TestFuzzerMutationSweep is the sweep the CI fuzz-smoke job cannot
// afford per input: 500+ mutated specs, every one validated, compiled,
// and executed twice under the invariant harness. Zero panics, zero
// violations.
func TestFuzzerMutationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of verified simulations")
	}
	const sweep = 520
	rng := rand.New(rand.NewSource(7))
	var m scenario.Mutator
	var pool []rica.Scenario
	for _, name := range []string{"chain-10", "grid-8x8", "hotspot-burst", "byzantine-drop"} {
		spec, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, spec)
	}
	for i := 0; i < 4; i++ {
		pool = append(pool, m.Random(rng))
	}
	protocols := rica.AllProtocols()
	for i := 0; i < sweep; i++ {
		spec := m.Mutate(pool[rng.Intn(len(pool))], rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("mutant %d failed validation: %v", i, err)
		}
		verifyUnder(t, spec, protocols[i%len(protocols)], 800*time.Millisecond)
		// Occasionally graft the mutant back into the pool so mutation
		// chains compound instead of orbiting the same bases.
		if rng.Intn(4) == 0 {
			pool[rng.Intn(len(pool))] = spec
		}
	}
}
