package invariant

import (
	"fmt"

	"rica/internal/metrics"
)

// Verify executes run twice and holds the pair to every invariant the
// harness knows: each summary must pass CheckSummary (conservation, the
// ledgers, zero leak) and the two fingerprints must be bit-identical
// (replay determinism — run must be a pure function of its captured
// configuration). It returns the first run's summary.
func Verify(run func() metrics.Summary) (metrics.Summary, error) {
	first := run()
	if err := CheckSummary(first); err != nil {
		return first, err
	}
	second := run()
	if err := CheckSummary(second); err != nil {
		return first, fmt.Errorf("replay run: %w", err)
	}
	if a, b := Fingerprint(first), Fingerprint(second); a != b {
		return first, ViolationSet{{
			Law:    "replay-determinism",
			Detail: fmt.Sprintf("same configuration, diverging fingerprints:\n  %s\n  %s", a, b),
		}}
	}
	return first, nil
}
