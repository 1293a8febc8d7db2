package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// --- time-series history ----------------------------------------------

func historyDoc(t *testing.T, h *History, prefix, agg string) map[string]any {
	t.Helper()
	var sb strings.Builder
	if _, err := h.DumpJSON(&sb, prefix, agg); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("history dump not valid JSON: %v\n%s", err, sb.String())
	}
	return doc
}

func seriesOf(t *testing.T, doc map[string]any, name string) []any {
	t.Helper()
	series, ok := doc["series"].(map[string]any)
	if !ok {
		t.Fatalf("no series object in %v", doc)
	}
	s, ok := series[name].([]any)
	if !ok {
		t.Fatalf("series %q missing in %v", name, series)
	}
	return s
}

func TestHistoryRingOverwriteAndEviction(t *testing.T) {
	h := NewHistory(HistoryOpts{Cap: 4})
	for c := 1; c <= 10; c++ {
		h.Append("m", sim.Cycle(c*100), float64(c))
	}
	s := seriesOf(t, historyDoc(t, h, "", ""), "m")
	if len(s) != 4 {
		t.Fatalf("ring kept %d samples, want 4", len(s))
	}
	first := s[0].(map[string]any)
	if first["c"].(float64) != 700 {
		t.Fatalf("oldest retained cycle = %v, want 700", first["c"])
	}
	// Same-cycle append overwrites rather than appends (grid re-publish
	// idempotence).
	h.Append("m", 1000, 99)
	s = seriesOf(t, historyDoc(t, h, "", ""), "m")
	last := s[len(s)-1].(map[string]any)
	if len(s) != 4 || last["v"].(float64) != 99 {
		t.Fatalf("same-cycle overwrite: len=%d last=%v", len(s), last)
	}
}

func TestHistoryCaptureAndPrefixQuery(t *testing.T) {
	r := NewRegistry()
	r.Counter("tenant0.reqs").Add(5)
	r.Counter("tenant1.reqs").Add(7)
	r.Gauge("tenant0.drift").Set(0.5)
	h := NewHistory(HistoryOpts{})
	h.Capture(r, 1000)
	r.Counter("tenant0.reqs").Add(1)
	h.Capture(r, 2000)

	doc := historyDoc(t, h, "tenant0.", "")
	series := doc["series"].(map[string]any)
	if len(series) != 2 {
		t.Fatalf("prefix query matched %d series, want 2: %v", len(series), series)
	}
	s := seriesOf(t, doc, "tenant0.reqs")
	if len(s) != 2 || s[1].(map[string]any)["v"].(float64) != 6 {
		t.Fatalf("captured counter series wrong: %v", s)
	}

	// Aggregates collapse the matched series per cycle; an exact prefix
	// scopes the aggregate to one series for easy expectations.
	for _, tc := range []struct {
		agg  string
		want float64
	}{{"sum", 5}, {"max", 5}, {"mean", 5}} {
		adoc := historyDoc(t, h, "tenant0.reqs", tc.agg)
		as := seriesOf(t, adoc, tc.agg+"(tenant0.reqs*)")
		if len(as) != 2 {
			t.Fatalf("agg %s: %d points, want 2", tc.agg, len(as))
		}
		if v := as[0].(map[string]any)["v"].(float64); v != tc.want {
			t.Fatalf("agg %s at cycle 1000 = %v, want %v", tc.agg, v, tc.want)
		}
	}
	sum := seriesOf(t, historyDoc(t, h, "tenant", "sum"), "sum(tenant*)")
	if v := sum[0].(map[string]any)["v"].(float64); v != 12.5 {
		t.Fatalf("sum over all tenant series at 1000 = %v, want 12.5", v)
	}
}

func TestHistoryMaxSeriesDropsCounted(t *testing.T) {
	h := NewHistory(HistoryOpts{MaxSeries: 2})
	h.Append("a", 1, 1)
	h.Append("b", 1, 1)
	h.Append("c", 1, 1) // over the bound
	h.Append("c", 2, 1)
	if h.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", h.Dropped())
	}
	doc := historyDoc(t, h, "", "")
	if doc["dropped_series"].(float64) != 2 {
		t.Fatalf("dump dropped_series = %v", doc["dropped_series"])
	}
	if _, ok := doc["series"].(map[string]any)["c"]; ok {
		t.Fatal("over-bound series was stored")
	}
}

func TestHistoryDumpByteStableAndNilSafe(t *testing.T) {
	h := NewHistory(HistoryOpts{})
	h.Append("b", 10, 2)
	h.Append("a", 10, 1)
	var d1, d2 strings.Builder
	h.DumpJSON(&d1, "", "")
	h.DumpJSON(&d2, "", "")
	if d1.String() != d2.String() {
		t.Fatal("same store dumped differently twice")
	}
	if !strings.Contains(d1.String(), `"a":[{"c":10,"v":1}],"b":`) {
		t.Fatalf("series not in sorted name order: %s", d1.String())
	}
	var nb strings.Builder
	var nilH *History
	nilH.DumpJSON(&nb, "", "")
	var doc map[string]any
	if err := json.Unmarshal([]byte(nb.String()), &doc); err != nil {
		t.Fatalf("nil history dump not valid JSON: %v", err)
	}
}

// --- SLO monitor ------------------------------------------------------

func TestParseSLOSpec(t *testing.T) {
	rules, err := ParseSLOSpec("drift_l1>0.15:3, drift_l1_epoch>0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Metric != "drift_l1" || rules[0].Max != 0.15 ||
		rules[0].Sustain != 3 || rules[1].Sustain != 1 {
		t.Fatalf("parsed %+v", rules)
	}
	for _, bad := range []string{"nometric", ">1", "m>x", "m>1:0", "m>1:x"} {
		if _, err := ParseSLOSpec(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
	if rules, _ := ParseSLOSpec(""); rules != nil {
		t.Fatal("empty spec should yield no rules")
	}
}

func TestSLOMonitorSustainedRaiseAndClear(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("shaper.req.0.drift_l1")
	rules, _ := ParseSLOSpec("drift_l1>0.2:3")
	var log bytes.Buffer
	m := NewSLOMonitor(rules, reg, &log)

	grid := func(cycle sim.Cycle, v float64) {
		g.Set(v)
		m.Check(reg, cycle)
	}
	// Two strides above threshold: not sustained yet.
	grid(100, 0.5)
	grid(200, 0.5)
	if v, _ := reg.Value("obs.alerts.raised"); v != 0 {
		t.Fatal("alert raised before sustain window")
	}
	// Dip resets the streak.
	grid(300, 0.1)
	grid(400, 0.5)
	grid(500, 0.5)
	if v, _ := reg.Value("obs.alerts.raised"); v != 0 {
		t.Fatal("streak survived a dip below threshold")
	}
	// Three consecutive: raised exactly once.
	grid(600, 0.5)
	if v, _ := reg.Value("obs.alerts.raised"); v != 1 {
		t.Fatalf("raised = %v, want 1", v)
	}
	grid(700, 0.6) // still violating: no duplicate alert
	if v, _ := reg.Value("obs.alerts.raised"); v != 1 {
		t.Fatal("duplicate raise while active")
	}
	if v, _ := reg.Value("obs.alerts.active"); v != 1 {
		t.Fatalf("active = %v, want 1", v)
	}
	// Recovery clears.
	grid(800, 0.05)
	if v, _ := reg.Value("obs.alerts.cleared"); v != 1 {
		t.Fatal("clear not emitted")
	}
	if v, _ := reg.Value("obs.alerts.active"); v != 0 {
		t.Fatal("active gauge not decremented")
	}

	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("alert log has %d lines, want 2:\n%s", len(lines), log.String())
	}
	want := `{"cycle":600,"rule":"drift_l1>0.2:3","metric":"shaper.req.0.drift_l1","value":0.5,"threshold":0.2,"sustained":3,"kind":"raised"}`
	if lines[0] != want {
		t.Fatalf("alert line:\n got %s\nwant %s", lines[0], want)
	}
	for _, l := range lines {
		var a map[string]any
		if err := json.Unmarshal([]byte(l), &a); err != nil {
			t.Fatalf("alert line not JSON: %v", err)
		}
	}
}

func TestSLOMonitorDrainAndIngest(t *testing.T) {
	// Worker side: monitor without a sink queues alerts for the frames.
	wreg := NewRegistry()
	wg := wreg.Gauge("drift_l1")
	rules, _ := ParseSLOSpec("drift_l1>0.1")
	wm := NewSLOMonitor(rules, wreg, nil)
	wg.Set(0.9)
	wm.Check(wreg, 1000)
	alerts := wm.Drain()
	if len(alerts) != 1 || alerts[0].Kind != "raised" {
		t.Fatalf("drained %v", alerts)
	}
	if wm.Drain() != nil {
		t.Fatal("second drain not empty")
	}

	// Wire round trip: alerts ride frames as JSON.
	b, err := json.Marshal(alerts)
	if err != nil {
		t.Fatal(err)
	}
	var wired []Alert
	if err := json.Unmarshal(b, &wired); err != nil {
		t.Fatal(err)
	}

	// Supervisor side: ingest rewrites the metric under the worker
	// prefix and feeds counters, log and ring.
	sreg := NewRegistry()
	var log bytes.Buffer
	sm := NewSLOMonitor(rules, sreg, &log)
	sm.Ingest("worker.abc.", wired)
	if v, _ := sreg.Value("obs.alerts.raised"); v != 1 {
		t.Fatal("ingest did not count")
	}
	if !strings.Contains(log.String(), `"metric":"worker.abc.drift_l1"`) {
		t.Fatalf("ingested alert not prefixed:\n%s", log.String())
	}
	var sb strings.Builder
	sm.DumpJSON(&sb)
	var doc struct {
		Alerts []map[string]any `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil || len(doc.Alerts) != 1 {
		t.Fatalf("/alerts doc: %v %s", err, sb.String())
	}
}

func TestSLOMonitorMetricSuffixMatching(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("shaper.resp.3.drift_l1").Set(1)
	reg.Gauge("drift_l1").Set(1)
	reg.Gauge("not_drift_l1").Set(1) // suffix without a dot: no match
	rules, _ := ParseSLOSpec("drift_l1>0.5")
	m := NewSLOMonitor(rules, reg, nil)
	m.Check(reg, 1)
	if v, _ := reg.Value("obs.alerts.raised"); v != 2 {
		t.Fatalf("raised = %v, want 2 (exact + dotted suffix, not substring)", v)
	}
}

// TestSLOMonitorDuplicateCycleIdempotent pins streak accounting to one
// step per grid cycle: the core loop's trailing end-of-run sample may
// revisit the final in-loop grid point, and that must not let a
// Sustain=N rule raise a stride early.
func TestSLOMonitorDuplicateCycleIdempotent(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("shaper.req.0.drift_l1")
	rules, _ := ParseSLOSpec("drift_l1>0.2:2")
	m := NewSLOMonitor(rules, reg, nil)
	g.Set(0.9)
	m.Check(reg, 100)
	m.Check(reg, 100) // duplicate delivery of the same grid cycle
	if v, _ := reg.Value("obs.alerts.raised"); v != 0 {
		t.Fatalf("raised = %v after one distinct cycle, want 0", v)
	}
	m.Check(reg, 200)
	if v, _ := reg.Value("obs.alerts.raised"); v != 1 {
		t.Fatalf("raised = %v after two distinct cycles, want 1", v)
	}
}

// TestForEachScalarReportsHistTotals pins the documented scalar view of
// a histogram: its _total sum, visible to history capture and SLO rules.
func TestForEachScalarReportsHistTotals(t *testing.T) {
	reg := NewRegistry()
	h := reg.CycleHist("shaper.req.0.queue_wait", stats.Binning{Edges: []sim.Cycle{0, 10, 20}})
	h.Observe(5)
	h.Observe(15)
	h.Observe(25)
	reg.Counter("reqs").Inc()
	got := map[string]float64{}
	reg.ForEachScalar(func(name string, value float64) { got[name] = value })
	if got["shaper.req.0.queue_wait_total"] != 3 {
		t.Fatalf("hist total missing from scalar walk: %v", got)
	}
	if len(got) != 2 {
		t.Fatalf("unexpected scalar set (per-bin lines must stay off it): %v", got)
	}

	// An SLO rule on the _total suffix can now fire.
	rules, _ := ParseSLOSpec("queue_wait_total>2")
	m := NewSLOMonitor(rules, reg, nil)
	m.Check(reg, 100)
	if v, _ := reg.Value("obs.alerts.raised"); v != 1 {
		t.Fatalf("hist-total rule did not fire: raised = %v", v)
	}
}

// --- delta tracker / merger -------------------------------------------

func TestDeltaTrackerAndMergerRoundTrip(t *testing.T) {
	// Worker registry accumulates; the tracker emits deltas.
	wreg := NewRegistry()
	c := wreg.Counter("reqs")
	g := wreg.Gauge("drift")
	bin := stats.Binning{Edges: []sim.Cycle{0, 100}}
	h := wreg.CycleHist("lat", bin)
	tr := NewDeltaTracker(wreg)

	c.Add(10)
	g.Set(0.5)
	h.Observe(50)
	h.Observe(150)
	d1 := tr.Delta()
	if d1 == nil || d1.Counters["reqs"] != 10 || d1.Gauges["drift"] != 0.5 {
		t.Fatalf("first delta %+v", d1)
	}
	if len(d1.Hists["lat"].Edges) != 2 || d1.Hists["lat"].Counts[0] != 1 || d1.Hists["lat"].Counts[1] != 1 {
		t.Fatalf("first hist delta %+v", d1.Hists["lat"])
	}

	// Nothing changed: no frame payload.
	if d := tr.Delta(); d != nil {
		t.Fatalf("idle delta %+v", d)
	}

	c.Add(5)
	h.Observe(10)
	d2 := tr.Delta()
	if d2.Counters["reqs"] != 5 {
		t.Fatalf("second counter delta %v", d2.Counters)
	}
	if len(d2.Hists["lat"].Edges) != 0 {
		t.Fatal("edges resent on second delta")
	}
	if _, ok := d2.Gauges["drift"]; ok {
		t.Fatal("unchanged gauge resent")
	}

	// Wire round trip then merge under a worker prefix.
	merge := func(reg *Registry, m *Merger, d *MetricsDelta, cycle sim.Cycle) {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var wired MetricsDelta
		if err := json.Unmarshal(b, &wired); err != nil {
			t.Fatal(err)
		}
		m.Apply(&wired, cycle)
	}
	sreg := NewRegistry()
	hist := NewHistory(HistoryOpts{})
	m := NewMerger(sreg, "worker.abc.")
	m.SetHistory(hist)
	merge(sreg, m, d1, 1000)
	merge(sreg, m, d2, 2000)

	if v, _ := sreg.Value("worker.abc.reqs"); v != 15 {
		t.Fatalf("merged counter = %v, want 15", v)
	}
	if v, _ := sreg.Value("worker.abc.drift"); v != 0.5 {
		t.Fatalf("merged gauge = %v", v)
	}
	dump := sreg.Dump()
	if !strings.Contains(dump, "worker.abc.lat_total 3") {
		t.Fatalf("merged hist missing from dump:\n%s", dump)
	}
	s := seriesOf(t, historyDoc(t, hist, "worker.abc.reqs", ""), "worker.abc.reqs")
	if len(s) != 2 || s[1].(map[string]any)["v"].(float64) != 15 {
		t.Fatalf("merged history series %v", s)
	}

	// A fresh merger for a restarted attempt zeroes the prefix first.
	m2 := NewMerger(sreg, "worker.abc.")
	if v, _ := sreg.Value("worker.abc.reqs"); v != 0 {
		t.Fatalf("restart did not zero the prefix: %v", v)
	}
	tr2 := NewDeltaTracker(wreg) // fresh process: zero baseline
	d := tr2.Delta()
	m2.Apply(d, 3000)
	if v, _ := sreg.Value("worker.abc.reqs"); v != 15 {
		t.Fatalf("re-reported counter = %v, want 15", v)
	}
}

// --- server endpoints -------------------------------------------------

func TestServerFleetEndpointsAndEmptyDocs(t *testing.T) {
	// No History, no Alerts: both endpoints must still serve valid empty
	// documents before any grid publish.
	s := &Server{Registry: NewRegistry()}
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, sb.String()
	}

	resp, body := get("/alerts")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("/alerts status=%d type=%q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var alerts struct {
		Alerts []any `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(body), &alerts); err != nil || alerts.Alerts == nil {
		t.Fatalf("/alerts empty doc invalid: %v %q", err, body)
	}

	resp, body = get("/metrics/history")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/history status %d", resp.StatusCode)
	}
	var hist map[string]any
	if err := json.Unmarshal([]byte(body), &hist); err != nil {
		t.Fatalf("/metrics/history empty doc invalid: %v %q", err, body)
	}
	if _, ok := hist["series"].(map[string]any); !ok {
		t.Fatalf("/metrics/history missing series object: %q", body)
	}

	resp, _ = get("/metrics/history?agg=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad agg accepted: %d", resp.StatusCode)
	}

	// Content-Type on /metrics names the exposition format.
	resp, _ = get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}

	// HEAD: headers only, no body.
	hresp, err := http.Head("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || len(hb) != 0 {
		t.Fatalf("HEAD /metrics status=%d body=%q", hresp.StatusCode, hb)
	}
	if ct := hresp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("HEAD /metrics Content-Type = %q", ct)
	}

	// Other methods: 405 with Allow.
	presp, err := http.Post("http://"+addr+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed || presp.Header.Get("Allow") == "" {
		t.Fatalf("POST /metrics status=%d allow=%q", presp.StatusCode, presp.Header.Get("Allow"))
	}
}

func TestServerHistoryAndAlertsPopulated(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("core.0.drift_l1").Set(0.9)
	hist := NewHistory(HistoryOpts{})
	rules, _ := ParseSLOSpec("drift_l1>0.5")
	mon := NewSLOMonitor(rules, reg, nil)
	b := &Bundle{Registry: reg, History: hist, Alerts: mon}
	b.GridSample(4096)

	s := &Server{Registry: reg, History: hist, Alerts: mon}
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get("http://" + addr + "/metrics/history?prefix=core.")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"core.0.drift_l1":[{"c":4096,"v":0.9}]`) {
		t.Fatalf("history body: %s", body)
	}

	resp, err = http.Get("http://" + addr + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"kind":"raised"`) {
		t.Fatalf("alerts body: %s", body)
	}
}

// --- tracer edge cases ------------------------------------------------

func TestTracerSamplingEdgeN(t *testing.T) {
	for _, n := range []uint64{0, 1} {
		tr, err := NewTracer(filepath.Join(t.TempDir(), fmt.Sprintf("n%d", n)), n, 42)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 100; id++ {
			if !tr.Sampled(id) {
				t.Fatalf("sampleN=%d: id %d not sampled (0 and 1 mean trace everything)", n, id)
			}
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTracerArtifactsCompleteAfterClose(t *testing.T) {
	base := filepath.Join(t.TempDir(), "flush")
	tr, err := NewTracer(base, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.BeginRun("flush-test")
	// Enough spans to overflow the 64 KiB bufio windows several times;
	// anything not flushed on Close would truncate the artifacts.
	const n = 5000
	for i := 1; i <= n; i++ {
		tr.Delivered(traceRequest(uint64(i), i%4))
	}
	if got := tr.Spans(); got != n {
		t.Fatalf("spans = %d, want %d", got, n)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	jb, err := os.ReadFile(base + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(jb, &doc); err != nil {
		t.Fatalf("chrome trace truncated or invalid after Close: %v", err)
	}
	if want := n * 7; len(doc.TraceEvents) != want {
		t.Fatalf("chrome events = %d, want %d", len(doc.TraceEvents), want)
	}

	lb, err := os.ReadFile(base + ".jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(lb), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("jsonl lines = %d, want %d", len(lines), n)
	}
	if !strings.HasSuffix(string(lb), "\n") {
		t.Fatal("jsonl does not end with a complete line")
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("final jsonl line torn: %v", err)
	}
}
