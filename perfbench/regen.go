package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// regenJobs is paper-regen's campaign worker count.
const regenJobs = 2

// regenCycles is the measured cycles per run of paper-regen's suite, half
// the experiments default: a default-cycles suite takes about 12 s on a
// 2-vCPU host, so a run would hold one or two of them and its median would
// follow the host's noise. At this length every experiment still meets its
// expectation and a run holds three or four suites.
const regenCycles = 100_000

// journalRecord is the part of a campaign journal line the benchmark
// reads.
type journalRecord struct {
	Job       string `json:"job"`
	Hash      string `json:"hash"`
	Status    string `json:"status"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// parseJournal decodes a campaign journal. A line that does not decode to
// a record with a hash is torn (the writer died mid-line) and is skipped
// and counted, as the campaign's own loader does.
func parseJournal(data []byte) (recs []journalRecord, torn int) {
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Hash == "" {
			torn++
			continue
		}
		recs = append(recs, rec)
	}
	return recs, torn
}

// regenGroup maps a job name to its report group: the experiment name
// (sweep points "scalability/8" fold into "scalability") when it is one
// of regenGroups, else "rest".
func regenGroup(job string) string {
	exp, _, _ := strings.Cut(job, "/")
	for _, g := range regenGroups {
		if g == exp {
			return g
		}
	}
	return "rest"
}

// regenRun is the outcome of one experiments invocation.
type regenRun struct {
	wall, cpu, rssMB float64
	stdout           string
	jobs             []journalRecord
	gcs              int
}

// runExperiments runs the experiments binary with args and returns its
// wall time, resource use and output. With gctrace set, the Go runtime
// reports each of the child's collections on its stderr, which is how
// they are counted.
func runExperiments(exe string, gctrace bool, args ...string) (*regenRun, error) {
	cmd := exec.Command(exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if gctrace {
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("experiments %s: %w\n%s", strings.Join(args, " "), err, tail(stderr.String(), 20))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	r := &regenRun{
		wall:   wall,
		cpu:    tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		rssMB:  float64(ru.Maxrss) / 1024,
		stdout: stdout.String(),
	}
	sc := bufio.NewScanner(&stderr)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "gc ") {
			r.gcs++
		}
	}
	return r, nil
}

// runSuite runs the full suite once with a fresh journal in dir and checks
// every job's status and the stdout tables against want (skipped when
// want is empty). It returns the run and the operation outcomes: one per
// journal record, plus one for the tables.
func runSuite(exe, dir string, seed uint64, gctrace bool, want string) (*regenRun, []error) {
	journal := filepath.Join(dir, "campaign.jsonl")
	if err := os.Remove(journal); err != nil && !os.IsNotExist(err) {
		return nil, []error{err}
	}
	r, err := runExperiments(exe, gctrace, "-jobs", strconv.Itoa(regenJobs), "-cycles", strconv.Itoa(regenCycles), "-seed", strconv.FormatUint(seed, 10), "-journal", journal)
	if err != nil {
		return nil, []error{err}
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		return nil, []error{err}
	}
	recs, torn := parseJournal(data)
	r.jobs = recs
	var outcomes []error
	for _, rec := range recs {
		if rec.Status != "done" {
			outcomes = append(outcomes, fmt.Errorf("job %s: status %s", rec.Job, rec.Status))
		} else {
			outcomes = append(outcomes, nil)
		}
	}
	if torn > 0 || len(recs) == 0 {
		outcomes = append(outcomes, fmt.Errorf("journal %s: %d records, %d torn lines", journal, len(recs), torn))
	}
	if got := textDigest(r.stdout); want != "" && got != want {
		outcomes = append(outcomes, fmt.Errorf("stdout tables digest %s, want %s", got, want))
	} else {
		outcomes = append(outcomes, nil)
	}
	return r, outcomes
}

// jobSeconds sums journal job times per report group.
func (r *regenRun) jobSeconds() map[string]float64 {
	out := make(map[string]float64, len(regenGroups))
	for _, g := range regenGroups {
		out[g] = 0
	}
	for _, rec := range r.jobs {
		out[regenGroup(rec.Job)] += float64(rec.ElapsedMS) / 1e3
	}
	return out
}

// parallelEff is the sum of job times over (workers × wall time).
func (r *regenRun) parallelEff() float64 {
	var sum float64
	for _, s := range r.jobSeconds() {
		sum += s
	}
	return ratio(sum, regenJobs*r.wall)
}

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:16]
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
