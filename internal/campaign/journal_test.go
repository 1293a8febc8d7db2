package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"camouflage/internal/harness"
	"camouflage/internal/iofault"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "journal.jsonl")
	jn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl := &harness.Table{Title: "T", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	if err := jn.Append(Record{Job: "fig11", Hash: "aaaa", Status: StatusDone, Attempts: 1, Table: tbl}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(Record{Job: "fig12", Hash: "bbbb", Status: StatusFailed, Attempts: 3, Class: "transient", Error: "boom"}); err != nil {
		t.Fatal(err)
	}

	re, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 || re.Torn() != 0 {
		t.Fatalf("reloaded %d records (%d torn), want 2/0", re.Len(), re.Torn())
	}
	recs := re.Records()
	if recs[0].Table == nil || recs[0].Table.Title != "T" || len(recs[0].Table.Rows) != 1 {
		t.Fatalf("table did not round-trip: %+v", recs[0].Table)
	}
	done := re.Done()
	if _, ok := done["aaaa"]; !ok || len(done) != 1 {
		t.Fatalf("Done() = %v, want only aaaa", done)
	}
}

// TestJournalTornLastLine kills a campaign mid-write: the journal's last
// line is truncated. Reload must recover every complete record and count
// the torn line, and a resumed campaign must re-run only the torn job.
func TestJournalTornLastLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{trivialJob("a"), trivialJob("b"), trivialJob("c")}
	opt := fastOpts()
	opt.Journal = jn
	if _, err := Run(context.Background(), jobs, opt); err != nil {
		t.Fatal(err)
	}

	// Tear the final record as a mid-write crash would: chop the file in
	// the middle of its last line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3", len(lines))
	}
	torn := strings.Join(lines[:2], "\n") + "\n" + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("recovered %d complete records, want 2", re.Len())
	}
	if re.Torn() != 1 {
		t.Fatalf("torn count %d, want 1", re.Torn())
	}

	// Resume: the two intact jobs are served from the journal, the torn
	// one re-runs.
	var reruns atomic.Int32
	resumed := make([]Job, len(jobs))
	for i, j := range jobs {
		j := j
		inner := j.Run
		j.Run = func(ctx context.Context, attempt int) (*harness.Table, error) {
			reruns.Add(1)
			return inner(ctx, attempt)
		}
		resumed[i] = j
	}
	opt2 := fastOpts()
	opt2.Journal = re
	opt2.Resume = true
	sum, err := Run(context.Background(), resumed, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if got := reruns.Load(); got != 1 {
		t.Fatalf("resume re-ran %d jobs, want exactly the torn one", got)
	}
	if sum.Resumed != 2 || sum.Completed != 1 {
		t.Fatalf("summary %s, want 2 resumed + 1 completed", sum)
	}
	// After the resume the journal is whole again: all three jobs done.
	if len(re.Done()) != 3 {
		t.Fatalf("journal has %d done records after resume, want 3", len(re.Done()))
	}
}

// fleetJournal is a journal as the earlier distributed dispatcher wrote
// it for trivialJob("a"), ("b") and ("c"): a done record carrying the
// attempt's fencing token and worker label, a superseded record for a
// zombie attempt, and a plain failed record.
const fleetJournal = `{"job":"a","hash":"0050014c251999f4","status":"done","attempts":1,"elapsed_ms":7,"table":{"Title":"a","Columns":["k","v"],"Rows":[["a","ok"]]},"fence":3,"worker":"w0"}
{"job":"b","hash":"d2dfc6e48e8022c0","status":"superseded","attempts":1,"class":"superseded","error":"campaign: lease superseded (stale fencing token)","fence":2,"worker":"w1"}
{"job":"c","hash":"a0298c79585de68d","status":"failed","attempts":3,"class":"transient","error":"boom","elapsed_ms":12}
`

// TestJournalLoadsFleetRecords pins backward compatibility: a journal
// whose records carry the removed fence/worker fields and superseded
// status still loads whole, and a resume serves only its done job.
func TestJournalLoadsFleetRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(fleetJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	jn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if jn.Len() != 3 || jn.Torn() != 0 {
		t.Fatalf("loaded %d records (%d torn), want 3/0", jn.Len(), jn.Torn())
	}
	a, b, c := trivialJob("a"), trivialJob("b"), trivialJob("c")
	done := jn.Done()
	if _, ok := done[a.Hash()]; !ok || len(done) != 1 {
		t.Fatalf("Done() = %v, want only %s", done, a.Hash())
	}

	// One pool worker runs the jobs in order; Run returns after it exits.
	var ran []string
	jobs := []Job{a, b, c}
	for i := range jobs {
		name, inner := jobs[i].Name, jobs[i].Run
		jobs[i].Run = func(ctx context.Context, attempt int) (*harness.Table, error) {
			ran = append(ran, name)
			return inner(ctx, attempt)
		}
	}
	opt := fastOpts()
	opt.Journal = jn
	opt.Resume = true
	sum, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != 1 || sum.Completed != 2 {
		t.Fatalf("summary %s, want 1 resumed + 2 completed", sum)
	}
	if res := sum.Results[0]; res.Status != Resumed || res.Table == nil || res.Table.Rows[0][1] != "ok" {
		t.Fatalf("job a: status %s table %+v, want the journaled table", res.Status, res.Table)
	}
	if strings.Join(ran, ",") != "b,c" {
		t.Fatalf("re-ran %v, want b and c", ran)
	}
}

// TestJournalGarbageMidFile: corruption anywhere (not just the tail) is
// dropped without losing the records around it.
func TestJournalGarbageMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"job":"a","hash":"h1","status":"done","attempts":1}
not json at all
{"job":"b","hash":"h2","status":"done","attempts":1}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	jn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if jn.Len() != 2 || jn.Torn() != 1 {
		t.Fatalf("recovered %d records (%d torn), want 2/1", jn.Len(), jn.Torn())
	}
}

func TestJournalReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := jn.Append(Record{Job: fmt.Sprintf("j%d", i), Hash: fmt.Sprintf("h%d", i), Status: StatusDone}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Reset(); err != nil {
		t.Fatal(err)
	}
	if jn.Len() != 0 {
		t.Fatalf("reset left %d records", jn.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("reset left %d bytes on disk", len(data))
	}
}

// TestJournalNoTempLeftovers: the atomic rewrite must not leave temp
// files behind on the happy path.
func TestJournalNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := jn.Append(Record{Job: "j", Hash: fmt.Sprintf("h%d", i), Status: StatusDone}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "journal.jsonl" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only journal.jsonl", names)
	}
}

// flakyFS fails the first N renames, then heals — the shape of a disk
// that fills up and is later cleared.
type flakyFS struct {
	iofault.FS
	renameFailsLeft int
}

func (f *flakyFS) Rename(oldpath, newpath string) error {
	if f.renameFailsLeft > 0 {
		f.renameFailsLeft--
		return errors.New("flaky: injected rename failure")
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestJournalBuffersAcrossFlushFailures: a failed flush loses nothing —
// records stay buffered, the journal reports dirty, and the first
// successful flush writes every record.
func TestJournalBuffersAcrossFlushFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	fsys := &flakyFS{FS: iofault.OS, renameFailsLeft: 2}
	jn, err := OpenJournalFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(Record{Job: "a", Hash: "aaaa", Status: StatusDone, Attempts: 1}); err == nil {
		t.Fatal("first append should surface the injected flush failure")
	}
	if !jn.Dirty() || jn.FlushFailures() != 1 {
		t.Fatalf("dirty=%v failures=%d after failed flush", jn.Dirty(), jn.FlushFailures())
	}
	// The second append also fails, but both records stay buffered.
	jn.Append(Record{Job: "b", Hash: "bbbb", Status: StatusDone, Attempts: 1})
	if jn.Len() != 2 {
		t.Fatalf("buffered %d records, want 2", jn.Len())
	}
	// Disk heals: the third append flushes everything.
	if err := jn.Append(Record{Job: "c", Hash: "cccc", Status: StatusDone, Attempts: 1}); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if jn.Dirty() {
		t.Fatal("journal still dirty after successful flush")
	}
	re, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 3 {
		t.Fatalf("reloaded %d records, want all 3", re.Len())
	}
}

// TestJournalFlushRetries: Flush is a no-op when clean and retries the
// rewrite when dirty.
func TestJournalFlushRetries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	fsys := &flakyFS{FS: iofault.OS, renameFailsLeft: 1}
	jn, err := OpenJournalFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Flush(); err != nil {
		t.Fatalf("Flush on a clean journal: %v", err)
	}
	jn.Append(Record{Job: "a", Hash: "aaaa", Status: StatusDone, Attempts: 1})
	if !jn.Dirty() {
		t.Fatal("want dirty after failed append flush")
	}
	if err := jn.Flush(); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	if jn.Dirty() {
		t.Fatal("still dirty after successful Flush")
	}
	re, _ := OpenJournal(path)
	if re.Len() != 1 {
		t.Fatalf("reloaded %d records, want 1", re.Len())
	}
}

// TestJournalUnderInjectedFaultSchedule: a probabilistic write/sync/
// rename fault schedule never loses a record — whatever lands on disk is
// a complete JSONL prefix-consistent journal, and the in-memory view
// always holds everything.
func TestJournalUnderInjectedFaultSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	in := iofault.NewInjector(iofault.Options{Seed: 31, WriteFail: 0.2, TornWrite: 0.2, SyncFail: 0.15, RenameFail: 0.15})
	jn, err := OpenJournalFS(in, path)
	if err != nil {
		t.Fatal(err)
	}
	var flushErrs int
	for i := 0; i < 40; i++ {
		if err := jn.Append(Record{Job: fmt.Sprintf("job%d", i), Hash: fmt.Sprintf("%016x", i), Status: StatusDone, Attempts: 1}); err != nil {
			flushErrs++
		}
		// The on-disk journal, when readable, must always decode with no
		// torn lines (atomic rename discipline).
		if re, err := OpenJournal(path); err == nil && re.Torn() != 0 {
			t.Fatalf("iteration %d: on-disk journal has %d torn lines", i, re.Torn())
		}
	}
	if jn.Len() != 40 {
		t.Fatalf("in-memory journal lost records: %d of 40", jn.Len())
	}
	if flushErrs == 0 {
		t.Fatal("fault schedule injected nothing; raise probabilities")
	}
	if jn.FlushFailures() == 0 {
		t.Fatal("flush failures not counted")
	}
}
