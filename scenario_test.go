package rica_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rica"
)

// TestScenarioCatalogAPI: the public surface exposes the catalog and
// round-trips specs through JSON.
func TestScenarioCatalogAPI(t *testing.T) {
	names := rica.ScenarioNames()
	if len(names) < 8 {
		t.Fatalf("catalog has %d scenarios, want ≥ 8", len(names))
	}
	spec, err := rica.ScenarioByName("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := rica.ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "paper-baseline" || back.Topology.N != 50 {
		t.Errorf("round trip mangled the spec: %+v", back)
	}
	if _, err := rica.ScenarioByName("no-such-scenario"); err == nil {
		t.Error("unknown scenario resolved")
	}
}

// TestRunBatchPublicAPI: a small grid runs through rica.RunBatch and
// exports well-formed JSON and CSV.
func TestRunBatchPublicAPI(t *testing.T) {
	spec, err := rica.ScenarioByName("chain-10")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = rica.ScenarioDuration(10 * time.Second)
	res, err := rica.RunBatch(rica.BatchConfig{
		Scenarios: []rica.Scenario{spec},
		Protocols: []rica.Protocol{rica.ProtocolRICA},
		Trials:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || len(res.Aggregates) != 1 {
		t.Fatalf("got %d cells, %d aggregates", len(res.Cells), len(res.Aggregates))
	}
	if res.Aggregates[0].DeliveryPct.Mean <= 0 {
		t.Error("chain-10 delivered nothing")
	}
	var js, csv bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"scenario": "chain-10"`) {
		t.Error("JSON export missing scenario rows")
	}
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 2 {
		t.Errorf("CSV has %d lines, want header + 1 aggregate", lines)
	}
}
