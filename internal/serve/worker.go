package serve

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// The worker protocol is the ricasim batch CLI itself: the supervisor
// re-execs its own binary with a -manifest journal inside the job
// directory, so crash-restart resumes with zero recompute and the
// exported result.json is byte-identical to an undisturbed run — both
// properties the batch engine already proves. The supervisor learns
// everything it needs from the worker's existing stderr lines; there is
// no bespoke IPC to keep deterministic.

// workerFiles are the fixed names inside a job directory.
const (
	workerManifest = "manifest"
	workerResult   = "result.json"
	workerLogFile  = "worker.log"
	jobFile        = "job.json"
	stateFile      = "state.json"
)

// defaultWorkerCommand builds the ricasim invocation for one attempt at
// a job. Inline specs were written to spec-N.json at admission; catalog
// scenarios travel by name.
func defaultWorkerCommand(bin string, j *Job) *exec.Cmd {
	var scenarios []string
	scenarios = append(scenarios, j.Spec.Scenarios...)
	for i := range j.Spec.Specs {
		scenarios = append(scenarios, filepath.Join(j.Dir, specFileName(i)))
	}
	args := []string{
		"-scenario", strings.Join(scenarios, ","),
		"-trials", strconv.Itoa(j.Spec.Trials),
		"-seed", strconv.FormatInt(j.Spec.Seed, 10),
		"-manifest", filepath.Join(j.Dir, workerManifest),
		"-out", filepath.Join(j.Dir, workerResult),
		"-format", "json",
		"-stats", "1s",
		"-statsaddr", "127.0.0.1:0",
	}
	if len(j.Spec.Protocols) > 0 {
		args = append(args, "-protocols", strings.Join(j.Spec.Protocols, ","))
	}
	if j.Spec.DurationS > 0 {
		args = append(args, "-duration", time.Duration(j.Spec.DurationS*float64(time.Second)).String())
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = os.Environ()
	return cmd
}

func specFileName(i int) string { return fmt.Sprintf("spec-%d.json", i) }

// Worker stderr line shapes the supervisor understands. Anything else
// still counts as liveness — an unknown line means the process is
// doing something — but these update job state.
var (
	// [3/30] chain-10/rica seed=4 delivery=98.5%
	workerProgressRE = regexp.MustCompile(`^\[(\d+)/(\d+)\] `)
	// manifest: restored 12 of 30 cells from /path/manifest
	workerRestoredRE = regexp.MustCompile(`^manifest: restored (\d+) of (\d+) cells`)
	// stats: serving http://127.0.0.1:43211/stats.json and ...
	workerStatsURLRE = regexp.MustCompile(`^stats: serving (http://\S+)/stats\.json`)
	// stats: sim=12s events=48211 gen=1200 dlv=1100 p50=80ms queue=3
	workerHeartbeatRE = regexp.MustCompile(`^stats: sim=\S+ events=(\d+) `)
)

// workerLine is one parsed stderr line.
type workerLine struct {
	kind     string // progress | restored | statsurl | heartbeat | other
	done     int    // progress
	total    int    // progress, restored
	restored int    // restored
	statsURL string // statsurl
	events   int64  // heartbeat: cumulative kernel event count
}

func parseWorkerLine(line string) workerLine {
	if m := workerProgressRE.FindStringSubmatch(line); m != nil {
		done, _ := strconv.Atoi(m[1])
		total, _ := strconv.Atoi(m[2])
		return workerLine{kind: "progress", done: done, total: total}
	}
	if m := workerRestoredRE.FindStringSubmatch(line); m != nil {
		restored, _ := strconv.Atoi(m[1])
		total, _ := strconv.Atoi(m[2])
		return workerLine{kind: "restored", restored: restored, total: total}
	}
	if m := workerStatsURLRE.FindStringSubmatch(line); m != nil {
		return workerLine{kind: "statsurl", statsURL: m[1]}
	}
	if m := workerHeartbeatRE.FindStringSubmatch(line); m != nil {
		events, _ := strconv.ParseInt(m[1], 10, 64)
		return workerLine{kind: "heartbeat", events: events}
	}
	return workerLine{kind: "other"}
}
