// Command obscheck validates the observability layer's external
// artifacts, as a CI gate and a debugging aid:
//
//	obscheck -trace out/trace            # out/trace.json + out/trace.jsonl
//	obscheck -metrics http://host:port   # live /metrics scrape
//	obscheck -metrics-file dump.txt      # saved /metrics dump
//	obscheck -jobs http://host:port      # live /jobs scrape
//	obscheck -history hist.json          # saved /metrics/history document
//	obscheck -alerts alerts.jsonl        # saved SLO alert log
//	obscheck -ckpt out/ckpts             # checkpoint file or directory
//	obscheck -journal out/campaign.jsonl # campaign journal (fencing tokens)
//
// -trace checks the Chrome trace_event file against the schema the
// viewers (Perfetto, chrome://tracing) require — a top-level traceEvents
// array of complete ("X") events with non-negative ts/dur — and checks
// the JSONL span log line-by-line for the fixed span fields and
// monotonic hop timestamps. -metrics checks the text dump is sorted
// `name value` lines; -require lists instrument names that must be
// present (comma-separated) and -require-prefix lists name prefixes at
// least one metric must match (how CI asserts aggregated worker.*
// metrics reached the supervisor). -jobs accepts both the fleet
// document {"jobs":[...],"worker":{...}} and the legacy bare job array.
// -history validates a /metrics/history JSON dump (sorted series,
// strictly increasing sample cycles); -alerts validates an SLO alert
// JSONL log (fixed fields, kind raised|cleared, sustain >= 1). -ckpt
// validates a checkpoint container's magic, version, declared payload
// length and SHA-256 checksum — for a directory, every *.camckpt file
// in it; -ckpt-config-hash additionally pins the configuration hash the
// checkpoints must carry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"camouflage/internal/ckpt"
)

func main() {
	tracePath := flag.String("trace", "", "validate PATH.json (Chrome trace_event) and PATH.jsonl (span log)")
	metricsURL := flag.String("metrics", "", "scrape this base URL's /metrics and validate the dump")
	metricsFile := flag.String("metrics-file", "", "validate a saved /metrics text dump")
	jobsURL := flag.String("jobs", "", "scrape this base URL's /jobs and validate the JSON")
	require := flag.String("require", "", "comma-separated metric names that must be present in the dump")
	requirePrefix := flag.String("require-prefix", "", "comma-separated name prefixes at least one metric must match (with -metrics/-metrics-file)")
	historyPath := flag.String("history", "", "validate a /metrics/history JSON document: a saved file, or a base URL to scrape live")
	alertsPath := flag.String("alerts", "", "validate SLO alerts: a saved JSONL log, or a base URL whose /alerts document to scrape live")
	ckptPath := flag.String("ckpt", "", "validate a checkpoint file, or every *.camckpt in a directory")
	ckptHash := flag.String("ckpt-config-hash", "", "hex config hash the checkpoints must carry (with -ckpt)")
	journalPath := flag.String("journal", "", "validate a campaign journal JSONL: record schema, terminal statuses, and globally unique fencing tokens")
	flag.Parse()

	if *tracePath == "" && *metricsURL == "" && *metricsFile == "" && *jobsURL == "" &&
		*historyPath == "" && *alertsPath == "" && *ckptPath == "" && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "obscheck: nothing to check; pass -trace, -metrics, -metrics-file, -jobs, -history, -alerts, -ckpt or -journal")
		os.Exit(2)
	}
	ok := true
	if *tracePath != "" {
		ok = checkChromeTrace(*tracePath+".json") && ok
		ok = checkSpanLog(*tracePath+".jsonl") && ok
	}
	if *metricsURL != "" {
		ok = checkMetricsURL(*metricsURL, splitNames(*require), splitNames(*requirePrefix)) && ok
	}
	if *metricsFile != "" {
		data, err := os.ReadFile(*metricsFile)
		if err != nil {
			fail("%v", err)
		} else {
			ok = checkMetricsDump(*metricsFile, string(data), splitNames(*require), splitNames(*requirePrefix)) && ok
		}
		if err != nil {
			ok = false
		}
	}
	if *jobsURL != "" {
		ok = checkJobsURL(*jobsURL) && ok
	}
	if *historyPath != "" {
		ok = checkHistory(*historyPath) && ok
	}
	if *alertsPath != "" {
		ok = checkAlertLog(*alertsPath) && ok
	}
	if *ckptPath != "" {
		ok = checkCheckpoints(*ckptPath, *ckptHash) && ok
	}
	if *journalPath != "" {
		ok = checkJournal(*journalPath) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// journalRecord mirrors the campaign journal's fixed JSONL schema.
type journalRecord struct {
	Job    string `json:"job"`
	Hash   string `json:"hash"`
	Status string `json:"status"`
	Fence  uint64 `json:"fence"`
	Worker string `json:"worker"`
	Class  string `json:"class"`
}

// checkJournal validates a campaign journal line-by-line: every record
// decodes, names a job, spec hash and a known terminal status, and —
// the distributed-dispatch invariant — no two records carry the same
// nonzero fencing token. The lease table hands out strictly increasing
// fences, so a duplicate means a zombie attempt's result was accounted
// twice. Superseded records must carry the fence that lost the race.
func checkJournal(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
		return false
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		lines = nil
	}
	fences := make(map[uint64]int, len(lines))
	superseded := 0
	for i, line := range lines {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			fail("%s:%d: not valid JSON: %v", path, i+1, err)
			return false
		}
		switch {
		case rec.Job == "" || rec.Hash == "":
			fail("%s:%d: record missing job/hash", path, i+1)
		case rec.Status != "done" && rec.Status != "failed" && rec.Status != "superseded":
			fail("%s:%d: status %q, want done, failed or superseded", path, i+1, rec.Status)
		case rec.Status == "superseded" && rec.Fence == 0:
			fail("%s:%d: superseded record without a fencing token", path, i+1)
		case rec.Status == "superseded" && rec.Class != "superseded":
			fail("%s:%d: superseded record with class %q", path, i+1, rec.Class)
		default:
			if rec.Fence != 0 {
				if prev, dup := fences[rec.Fence]; dup {
					fail("%s:%d: fencing token %d already used on line %d (double-counted attempt)", path, i+1, rec.Fence, prev)
					return false
				}
				fences[rec.Fence] = i + 1
			}
			if rec.Status == "superseded" {
				superseded++
			}
			continue
		}
		return false
	}
	fmt.Printf("obscheck: %s: %d records (%d superseded, %d fenced) OK\n", path, len(lines), superseded, len(fences))
	return true
}

// checkCheckpoints validates checkpoint containers: the magic, format
// version, declared payload length and SHA-256 checksum (all enforced by
// ckpt.ReadFile), plus — when wantHash is given — the config hash. A
// directory is expanded to its *.camckpt files and must contain at least
// one.
func checkCheckpoints(path, wantHash string) bool {
	paths := []string{path}
	if fi, err := os.Stat(path); err != nil {
		fail("%v", err)
		return false
	} else if fi.IsDir() {
		paths, err = filepath.Glob(filepath.Join(path, "*.camckpt"))
		if err != nil {
			fail("%v", err)
			return false
		}
		if len(paths) == 0 {
			fail("%s: no *.camckpt files", path)
			return false
		}
	}
	var want uint64
	if wantHash != "" {
		var err error
		if want, err = strconv.ParseUint(wantHash, 16, 64); err != nil {
			fail("-ckpt-config-hash %q: not a hex hash: %v", wantHash, err)
			return false
		}
	}
	for _, p := range paths {
		h, payload, err := ckpt.ReadFile(p)
		if err != nil {
			fail("%s: %v", p, err)
			return false
		}
		if wantHash != "" && h.ConfigHash != want {
			fail("%s: config hash %016x, want %016x", p, h.ConfigHash, want)
			return false
		}
		fmt.Printf("obscheck: %s: version=%d config=%016x cycle=%d seed=%d payload=%d bytes OK\n",
			p, h.Version, h.ConfigHash, h.Cycle, h.Seed, len(payload))
	}
	return true
}

// jobEntry is the per-job subset of the /jobs schema obscheck enforces.
type jobEntry struct {
	Name  string `json:"name"`
	State string `json:"state"`
}

// checkJobsURL scrapes base's /jobs and validates the campaign snapshot:
// either the fleet document {"jobs":[...],"worker":{...}} or the legacy
// bare job array, with every entry carrying a name and a state.
func checkJobsURL(base string) bool {
	url := strings.TrimRight(base, "/") + "/jobs"
	resp, err := http.Get(url)
	if err != nil {
		fail("%v", err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("%s: status %d", url, resp.StatusCode)
		return false
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("%s: %v", url, err)
		return false
	}
	var jobs []jobEntry
	hasWorker := false
	if trimmed := strings.TrimSpace(string(body)); strings.HasPrefix(trimmed, "[") {
		if err := json.Unmarshal(body, &jobs); err != nil {
			fail("%s: not a JSON job array: %v", url, err)
			return false
		}
	} else {
		var doc struct {
			Jobs   []jobEntry      `json:"jobs"`
			Worker json.RawMessage `json:"worker"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			fail("%s: not a JSON jobs document: %v", url, err)
			return false
		}
		if doc.Jobs == nil {
			fail("%s: document missing jobs array", url)
			return false
		}
		if len(doc.Worker) == 0 {
			fail("%s: document missing worker fleet summary", url)
			return false
		}
		// The worker summary must be an object of numeric counters.
		var worker map[string]float64
		if err := json.Unmarshal(doc.Worker, &worker); err != nil {
			fail("%s: worker summary not an object of numbers: %v", url, err)
			return false
		}
		jobs = doc.Jobs
		hasWorker = true
	}
	for i, j := range jobs {
		if j.Name == "" || j.State == "" {
			fail("%s: job %d missing name/state", url, i)
			return false
		}
	}
	suffix := ""
	if hasWorker {
		suffix = " (+worker summary)"
	}
	fmt.Printf("obscheck: %s: %d jobs OK%s\n", url, len(jobs), suffix)
	return true
}

// readArtifact resolves src: an http(s) base URL scrapes base+path, any
// other string reads the file. Returns the contents and the display name.
func readArtifact(src, path string) ([]byte, string, error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		data, err := os.ReadFile(src)
		return data, src, err
	}
	url := strings.TrimRight(src, "/") + path
	resp, err := http.Get(url)
	if err != nil {
		return nil, url, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, url, fmt.Errorf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	return body, url, err
}

// checkHistory validates a /metrics/history JSON document — from a saved
// file, or scraped live when src is a base URL: the fixed top-level
// shape, series in sorted name order, and strictly increasing sample
// cycles within each series.
func checkHistory(src string) bool {
	data, path, err := readArtifact(src, "/metrics/history")
	if err != nil {
		fail("%s: %v", path, err)
		return false
	}
	var doc struct {
		DroppedSeries *uint64 `json:"dropped_series"`
		Series        map[string][]struct {
			C *uint64  `json:"c"`
			V *float64 `json:"v"`
		} `json:"series"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fail("%s: not a valid history document: %v", path, err)
		return false
	}
	if doc.DroppedSeries == nil || doc.Series == nil {
		fail("%s: missing dropped_series/series fields", path)
		return false
	}
	names := make([]string, 0, len(doc.Series))
	samples := 0
	for name := range doc.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prev := int64(-1)
		for i, s := range doc.Series[name] {
			switch {
			case s.C == nil || s.V == nil:
				fail("%s: series %q sample %d missing c/v", path, name, i)
				return false
			case int64(*s.C) <= prev:
				fail("%s: series %q sample %d: cycle %d not after %d", path, name, i, *s.C, prev)
				return false
			}
			prev = int64(*s.C)
			samples++
		}
	}
	fmt.Printf("obscheck: %s: %d series, %d samples OK\n", path, len(names), samples)
	return true
}

// alertLine mirrors the SLO monitor's fixed JSONL schema.
type alertLine struct {
	Cycle     *uint64  `json:"cycle"`
	Rule      string   `json:"rule"`
	Metric    string   `json:"metric"`
	Value     *float64 `json:"value"`
	Threshold *float64 `json:"threshold"`
	Sustained *int     `json:"sustained"`
	Kind      string   `json:"kind"`
}

// checkAlertLog validates SLO alerts: a saved JSONL log line-by-line,
// or — when src is a base URL — the live /alerts document
// {"alerts":[...]}.
func checkAlertLog(src string) bool {
	data, path, err := readArtifact(src, "/alerts")
	if err != nil {
		fail("%s: %v", path, err)
		return false
	}
	var alerts []alertLine
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, `{"alerts"`) {
		var doc struct {
			Alerts []alertLine `json:"alerts"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			fail("%s: not a valid alerts document: %v", path, err)
			return false
		}
		if doc.Alerts == nil {
			fail("%s: document missing alerts array", path)
			return false
		}
		alerts = doc.Alerts
	} else {
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) == 1 && lines[0] == "" {
			lines = nil
		}
		for i, line := range lines {
			var a alertLine
			if err := json.Unmarshal([]byte(line), &a); err != nil {
				fail("%s:%d: not valid JSON: %v", path, i+1, err)
				return false
			}
			alerts = append(alerts, a)
		}
	}
	for i, a := range alerts {
		switch {
		case a.Cycle == nil || a.Rule == "" || a.Metric == "":
			fail("%s: alert %d: missing cycle/rule/metric", path, i+1)
		case a.Value == nil || a.Threshold == nil || a.Sustained == nil:
			fail("%s: alert %d: missing value/threshold/sustained", path, i+1)
		case a.Kind != "raised" && a.Kind != "cleared":
			fail("%s: alert %d: kind %q, want raised or cleared", path, i+1, a.Kind)
		case a.Kind == "raised" && *a.Sustained < 1:
			fail("%s: alert %d: raised with sustained %d < 1", path, i+1, *a.Sustained)
		default:
			continue
		}
		return false
	}
	fmt.Printf("obscheck: %s: %d alerts OK\n", path, len(alerts))
	return true
}

// checkWorkerPrefix enforces the fleet metric namespace on any
// worker.* instrument:
//
//	worker.<jobhash>.<metric>           local process-isolated attempt
//	worker.<label>.<jobhash>.<metric>   remote fleet member <label>
//
// where <jobhash> is the 16-hex spec hash and <label> is a sanitized
// worker identity over [A-Za-z0-9_-]. Names outside these shapes would
// make the merged dump unattributable (and un-zeroable on zombie
// rejection), so CI rejects them.
func checkWorkerPrefix(name string) error {
	if !strings.HasPrefix(name, "worker.") {
		return nil
	}
	parts := strings.Split(name, ".")
	if len(parts) >= 3 && isJobHash(parts[1]) && parts[2] != "" {
		return nil // local: worker.<jobhash>.<metric...>
	}
	if len(parts) >= 4 && isFleetLabel(parts[1]) && isJobHash(parts[2]) && parts[3] != "" {
		return nil // remote: worker.<label>.<jobhash>.<metric...>
	}
	return fmt.Errorf("worker metric %q does not match worker.<jobhash>.* or worker.<label>.<jobhash>.*", name)
}

// isJobHash reports whether s is a 16-digit lowercase hex spec hash.
func isJobHash(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// isFleetLabel reports whether s is a sanitized worker identity.
func isFleetLabel(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obscheck: "+format+"\n", args...)
}

func splitNames(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// chromeEvent is the subset of the trace_event schema the viewers need.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	TS   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	PID  *int            `json:"pid"`
	TID  *int            `json:"tid"`
	Args json.RawMessage `json:"args"`
}

// checkChromeTrace validates the trace_event JSON object format.
func checkChromeTrace(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
		return false
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fail("%s: not valid trace JSON: %v", path, err)
		return false
	}
	if doc.TraceEvents == nil {
		fail("%s: missing traceEvents array", path)
		return false
	}
	for i, e := range doc.TraceEvents {
		switch {
		case e.Name == "":
			fail("%s: event %d: empty name", path, i)
		case e.Ph != "X":
			fail("%s: event %d (%s): phase %q, want complete event \"X\"", path, i, e.Name, e.Ph)
		case e.TS == nil || *e.TS < 0:
			fail("%s: event %d (%s): missing or negative ts", path, i, e.Name)
		case e.Dur == nil || *e.Dur < 0:
			fail("%s: event %d (%s): missing or negative dur", path, i, e.Name)
		case e.PID == nil || e.TID == nil:
			fail("%s: event %d (%s): missing pid/tid", path, i, e.Name)
		default:
			continue
		}
		return false
	}
	fmt.Printf("obscheck: %s: %d events OK\n", path, len(doc.TraceEvents))
	return true
}

// span mirrors the tracer's fixed JSONL schema.
type span struct {
	Run       string  `json:"run"`
	ID        *uint64 `json:"id"`
	Core      *int    `json:"core"`
	Op        string  `json:"op"`
	Created   *uint64 `json:"created"`
	Delivered *uint64 `json:"delivered"`
}

// checkSpanLog validates the JSONL span log line-by-line.
func checkSpanLog(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
		return false
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		lines = nil
	}
	for i, line := range lines {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			fail("%s:%d: not valid JSON: %v", path, i+1, err)
			return false
		}
		switch {
		case s.Run == "" || s.ID == nil || s.Core == nil || s.Op == "":
			fail("%s:%d: missing span fields", path, i+1)
		case s.Created == nil || s.Delivered == nil:
			fail("%s:%d: missing lifecycle timestamps", path, i+1)
		case *s.Delivered < *s.Created:
			fail("%s:%d: delivered %d before created %d", path, i+1, *s.Delivered, *s.Created)
		default:
			continue
		}
		return false
	}
	fmt.Printf("obscheck: %s: %d spans OK\n", path, len(lines))
	return true
}

// checkMetricsURL scrapes base's /metrics and validates the dump.
func checkMetricsURL(base string, required, prefixes []string) bool {
	url := strings.TrimRight(base, "/") + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		fail("%v", err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("%s: status %d", url, resp.StatusCode)
		return false
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("%s: %v", url, err)
		return false
	}
	return checkMetricsDump(url, string(body), required, prefixes)
}

// checkMetricsDump validates sorted `name value` lines, the presence of
// every required instrument, and at least one match per required name
// prefix.
func checkMetricsDump(src, dump string, required, prefixes []string) bool {
	lines := strings.Split(strings.TrimRight(dump, "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		lines = nil
	}
	have := make(map[string]bool, len(lines))
	prev := ""
	for i, line := range lines {
		name, value, ok := strings.Cut(line, " ")
		if !ok || name == "" {
			fail("%s:%d: malformed line %q", src, i+1, line)
			return false
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			fail("%s:%d: non-numeric value in %q", src, i+1, line)
			return false
		}
		if line < prev {
			fail("%s:%d: dump not sorted (%q after %q)", src, i+1, line, prev)
			return false
		}
		prev = line
		// Histogram bins are name{ge="..."}; index by bare name too.
		bare := name
		if j := strings.IndexByte(name, '{'); j > 0 {
			bare = name[:j]
		}
		if err := checkWorkerPrefix(bare); err != nil {
			fail("%s:%d: %v", src, i+1, err)
			return false
		}
		have[name] = true
		have[bare] = true
	}
	for _, name := range required {
		if !have[name] {
			fail("%s: required metric %q missing from dump (%d lines)", src, name, len(lines))
			return false
		}
	}
	for _, p := range prefixes {
		found := false
		for name := range have {
			if strings.HasPrefix(name, p) {
				found = true
				break
			}
		}
		if !found {
			fail("%s: no metric with required prefix %q in dump (%d lines)", src, p, len(lines))
			return false
		}
	}
	fmt.Printf("obscheck: %s: %d metrics OK\n", src, len(lines))
	return true
}
