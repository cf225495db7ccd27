package batch_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rica/internal/batch"
	"rica/internal/experiment"
	"rica/internal/protocol"
)

// TestFigureFailsOnPoisonedCell: the engine quarantines a panicking cell
// so the rest of a grid can finish, and aggregates around it. A figure
// must not: each of its rows is an average over named trials, so a sweep
// with a poisoned cell fails whole, naming the cell and carrying its
// stack.
func TestFigureFailsOnPoisonedCell(t *testing.T) {
	spec, err := experiment.FieldSpec(36, 10, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	batch.SetCellHook(t, func(name string, p protocol.Protocol, seed int64) {
		if name == spec.Name && p == protocol.AODV && seed == 8 {
			panic("injected cell failure")
		}
	})
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{spec.Name + "/AODV seed=8", "injected cell failure", "batch.runCell("} {
			if !strings.Contains(msg, want) {
				t.Errorf("figure failure lacks %q:\n%s", want, msg)
			}
		}
	}()
	sweep := experiment.Sweep(10, experiment.Options{
		Speeds:    []float64{0, 36},
		Protocols: []protocol.Protocol{protocol.RICA, protocol.AODV},
		Trials:    2, Duration: 2 * time.Second, BaseSeed: 7,
	})
	t.Fatalf("sweep with a poisoned cell returned a figure:\n%s", sweep.Table(experiment.MetricDelivery))
}
