package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rica/internal/durable"
	"rica/internal/scenario"
)

// TestSubmitIsDurable: a job answered with 202 must survive a power
// loss, so Submit syncs jobs/ (the new directory's entry) and the job
// directory (the entries of spec-N.json and job.json, each written
// through a fsynced temp file) before it returns, and leaves no temp
// file behind. The server is never started, so no worker touches the
// job while the syncs are recorded; uses the durable package's test
// observer, so it must not run in parallel with other sync users.
func TestSubmitIsDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.ByName("chain-10")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	var synced []string
	durable.OnSync = func(d string) { synced = append(synced, d) }
	defer func() { durable.OnSync = nil }()
	st, err := s.Submit(JobSpec{Specs: []json.RawMessage{raw}, Trials: 1, Protocols: []string{"RICA"}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	jobs := filepath.Join(dir, "jobs")
	jobDir := filepath.Join(jobs, st.ID)
	for _, want := range []string{jobs, jobDir} {
		if !slices.Contains(synced, want) {
			t.Errorf("Submit never synced %s; synced = %v", want, synced)
		}
	}
	entries, err := os.ReadDir(jobDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("Submit left a temp file behind: %s", e.Name())
		}
	}
	if want := []string{jobFile, specFileName(0)}; !slices.Equal(names, want) {
		t.Errorf("job directory holds %v, want %v", names, want)
	}
}
