// Package campaign is the resilient job-runner behind the full
// evaluation campaign: every experiment (and every sweep point) is a
// named Job with a deterministic spec hash, executed on a bounded worker
// pool with per-job deadlines, retry with exponential backoff for
// transient failures, and a crash-safe JSONL progress journal so an
// interrupted campaign resumes where it stopped instead of starting
// over.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"camouflage/internal/harness"
	"camouflage/internal/iofault"
)

// Record is one journal line: the terminal outcome of one job.
type Record struct {
	// Job is the job's name, Hash its deterministic spec hash. A resume
	// matches on Hash, not Name, so a job whose parameters changed (new
	// cycles, new seed) is re-run instead of wrongly skipped.
	Job  string `json:"job"`
	Hash string `json:"hash"`
	// Status is "done" or "failed".
	Status string `json:"status"`
	// Attempts counts executions including the successful/final one.
	Attempts int `json:"attempts"`
	// Class and Error describe the failure for Status "failed".
	Class string `json:"class,omitempty"`
	Error string `json:"error,omitempty"`
	// ElapsedMS is the job's wall-clock duration in milliseconds across
	// all attempts, so a resumed campaign can still report total compute
	// time including the work done before the interrupt.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// RetryAtMS holds the start offset (ms since the job began) of each
	// retry attempt — attempt 2 onward — for post-hoc analysis of backoff
	// behaviour.
	RetryAtMS []int64 `json:"retry_at_ms,omitempty"`
	// Table is the rendered result for Status "done", stored so a resumed
	// campaign can re-emit completed results without re-running them.
	Table *harness.Table `json:"table,omitempty"`
}

// Journal terminal statuses. Done only consults StatusDone, so a record
// with any other status never affects resume.
const (
	StatusDone   = "done"
	StatusFailed = "failed"
)

// Journal is the append-only JSONL progress log. Every Append rewrites
// the whole file to a temp file in the same directory and renames it
// over the journal path (then fsyncs the directory — see flushLocked),
// so a crash at any instant leaves either the previous complete journal
// or the new complete journal — never a half-written line. Load
// additionally tolerates a torn final line (a journal produced by a
// plain appender, or a filesystem that broke the rename promise) by
// dropping it and reporting it, so every complete record before the
// tear is still recovered.
//
// Degradation policy: a failed flush never loses records — they stay
// buffered in memory, the journal is marked dirty, and every subsequent
// Append (and an explicit Flush) retries the full rewrite. A campaign on
// a sick disk therefore still drains cleanly, reports its summary, and
// recovers its journal the moment the disk heals.
type Journal struct {
	path string
	fs   iofault.FS

	mu      sync.Mutex
	records []Record
	// torn counts undecodable lines dropped by Load.
	torn int
	// dirty marks records not yet durably flushed; flushFails counts
	// failed flush attempts for the degraded-mode report.
	dirty      bool
	flushFails uint64
}

// OpenJournal loads the journal at path, creating its directory if
// needed. A missing file is an empty journal, not an error.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalFS(iofault.OS, path)
}

// OpenJournalFS is OpenJournal with all file I/O routed through fsys, so
// the chaos layer can inject flush failures underneath the exact
// production code path.
func OpenJournalFS(fsys iofault.FS, path string) (*Journal, error) {
	if fsys == nil {
		fsys = iofault.OS
	}
	if path == "" {
		return nil, fmt.Errorf("campaign: empty journal path")
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: journal dir: %w", err)
		}
	}
	j := &Journal{path: path, fs: fsys}
	data, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		return j, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: read journal: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Hash == "" {
			// A torn line: the process died mid-write. The record was not
			// complete, so the job it belonged to simply re-runs.
			j.torn++
			continue
		}
		j.records = append(j.records, rec)
	}
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Torn reports how many undecodable (torn) lines Load dropped.
func (j *Journal) Torn() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.torn
}

// Dirty reports whether the journal holds records that have not been
// durably flushed (a previous flush failed and no retry has succeeded
// yet).
func (j *Journal) Dirty() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dirty
}

// FlushFailures counts failed flush attempts over the journal's
// lifetime — the degraded-mode gauge for journal I/O.
func (j *Journal) FlushFailures() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushFails
}

// Flush retries the full rewrite of a dirty journal. On a clean journal
// it is a no-op. The campaign runner calls it once more at drain so a
// transient disk fault that has healed leaves a complete journal behind.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.dirty {
		return nil
	}
	return j.flushLocked()
}

// Len returns the number of loaded/appended records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.records)
}

// Records returns a copy of all records in append order.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.records...)
}

// Done returns the most recent StatusDone record per spec hash.
func (j *Journal) Done() map[string]Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]Record)
	for _, rec := range j.records {
		if rec.Status == StatusDone {
			out[rec.Hash] = rec
		}
	}
	return out
}

// Reset drops every record and truncates the journal file (a fresh,
// non-resumed campaign over an existing journal path).
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = nil
	j.torn = 0
	return j.flushLocked()
}

// Append adds rec and atomically rewrites the journal file. The record
// is kept in memory even if the flush fails (the journal goes dirty and
// later Appends/Flush retry the whole rewrite), so a campaign on a full
// disk still finishes and reports; the flush error is returned for the
// runner to surface.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = append(j.records, rec)
	return j.flushLocked()
}

// flushLocked writes all records to a temp file, renames it over the
// journal path, and fsyncs the parent directory. Crash-safety contract:
// the rename makes the new journal visible, but only the directory
// fsync makes the rename itself durable across power failure — without
// it the old journal (or none) can silently come back. A failure
// anywhere marks the journal dirty for retry; success clears it.
// Callers hold j.mu.
func (j *Journal) flushLocked() error {
	err := j.writeLocked()
	if err != nil {
		j.dirty = true
		j.flushFails++
	} else {
		j.dirty = false
	}
	return err
}

func (j *Journal) writeLocked() error {
	var b strings.Builder
	for _, rec := range j.records {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("campaign: marshal journal record %q: %w", rec.Job, err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	dir := filepath.Dir(j.path)
	tmp, err := j.fs.CreateTemp(dir, filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("campaign: journal temp file: %w", err)
	}
	if _, err := tmp.Write([]byte(b.String())); err != nil {
		tmp.Close()
		j.fs.Remove(tmp.Name())
		return fmt.Errorf("campaign: write journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		j.fs.Remove(tmp.Name())
		return fmt.Errorf("campaign: sync journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		j.fs.Remove(tmp.Name())
		return fmt.Errorf("campaign: close journal: %w", err)
	}
	if err := j.fs.Rename(tmp.Name(), j.path); err != nil {
		j.fs.Remove(tmp.Name())
		return fmt.Errorf("campaign: rename journal: %w", err)
	}
	if err := j.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("campaign: sync journal dir: %w", err)
	}
	return nil
}
