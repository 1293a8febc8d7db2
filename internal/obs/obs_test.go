package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"camouflage/internal/iofault"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// --- nil safety -------------------------------------------------------

func TestNilInstrumentsNoOp(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *CycleHist
	h.Observe(10)
	if b, counts := h.Snapshot(); b.N() != 0 || counts != nil {
		t.Fatal("nil hist snapshot")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if _, ok := r.Value("x"); ok {
		t.Fatal("nil registry Value")
	}
	if n, err := r.WriteTo(io.Discard); n != 0 || err != nil {
		t.Fatal("nil registry WriteTo")
	}
	var s *Scope
	s.GaugeFunc("x", func() float64 { return 1 })
	s.Publish()
	if r.NewScope() != nil {
		t.Fatal("nil registry scope")
	}
	var tr *Tracer
	tr.BeginRun("x")
	tr.Delivered(&mem.Request{})
	if tr.Sampled(1) {
		t.Fatal("nil tracer sampled")
	}
	if tr.Spans() != 0 || tr.Close() != nil {
		t.Fatal("nil tracer spans/close")
	}
	var p *ProgressReporter
	p.Stop()
}

// --- registry ---------------------------------------------------------

func TestRegistryCreateOrGet(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c1.Inc()
	if c2 := r.Counter("a"); c2 != c1 || c2.Value() != 1 {
		t.Fatal("counter not shared by name")
	}
	g1 := r.Gauge("b")
	g1.Set(2.5)
	if g2 := r.Gauge("b"); g2 != g1 || g2.Value() != 2.5 {
		t.Fatal("gauge not shared by name")
	}
	b := stats.Binning{Edges: []sim.Cycle{0, 10, 20}}
	h1 := r.CycleHist("h", b)
	h1.Observe(5)
	if h2 := r.CycleHist("h", b); h2 != h1 {
		t.Fatal("hist not shared by name")
	}
	if v, ok := r.Value("a"); !ok || v != 1 {
		t.Fatalf("Value(a) = %v, %v", v, ok)
	}
	if v, ok := r.Value("b"); !ok || v != 2.5 {
		t.Fatalf("Value(b) = %v, %v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatal("Value(missing) should not exist")
	}
}

func TestRegistryWriteToSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(7)
	r.Gauge("a.gauge").Set(1.5)
	h := r.CycleHist("m.hist", stats.Binning{Edges: []sim.Cycle{0, 10}})
	h.Observe(3)
	h.Observe(12)
	h.Observe(15)
	dump := r.Dump()
	lines := strings.Split(strings.TrimRight(dump, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Fatalf("dump not sorted: %q > %q", lines[i-1], lines[i])
		}
	}
	for _, want := range []string{"z.count 7", "a.gauge 1.5", "m.hist_total 3"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestScopePublish(t *testing.T) {
	r := NewRegistry()
	sc := r.NewScope()
	v := 1.0
	sc.GaugeFunc("pull.me", func() float64 { return v })
	if got, ok := r.Value("pull.me"); !ok || got != 0 {
		t.Fatalf("before publish: %v, %v", got, ok)
	}
	sc.Publish()
	if got, _ := r.Value("pull.me"); got != 1 {
		t.Fatalf("after publish: %v", got)
	}
	v = 42
	sc.Publish()
	if got, _ := r.Value("pull.me"); got != 42 {
		t.Fatalf("after second publish: %v", got)
	}
}

// TestRegistryConcurrentScrape exercises the lock-free claim under the
// race detector: writers hammer instruments while a scraper dumps.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.CycleHist("h", stats.DefaultBinning())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			g.Set(float64(i))
			h.Observe(sim.Cycle(i % 1000))
		}
	}()
	for i := 0; i < 50; i++ {
		r.WriteTo(io.Discard)
		r.Value("c")
	}
	close(stop)
	wg.Wait()
}

// TestRegistryParallelScrapers pins the scrape-buffer contract: net/http
// serves each /metrics request on its own goroutine, so concurrent
// WriteTo calls must not share the scratch buffer's backing array while
// one of them is still draining it to a writer. Every scraped document
// must be internally consistent (well-formed sorted lines), and the run
// must be clean under -race.
func TestRegistryParallelScrapers(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 32; i++ {
		r.Counter(fmt.Sprintf("c.%02d", i)).Add(uint64(i))
		r.Gauge(fmt.Sprintf("g.%02d", i)).Set(float64(i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var buf bytes.Buffer
				if _, err := r.WriteTo(&buf); err != nil {
					errs <- err
					return
				}
				lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
				if len(lines) != 64 {
					errs <- fmt.Errorf("scrape has %d lines, want 64:\n%s", len(lines), buf.String())
					return
				}
				for j, l := range lines {
					if _, _, ok := strings.Cut(l, " "); !ok {
						errs <- fmt.Errorf("malformed scrape line %q", l)
						return
					}
					if j > 0 && lines[j-1] > l {
						errs <- fmt.Errorf("scrape unsorted: %q > %q", lines[j-1], l)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// --- tracer -----------------------------------------------------------

// traceRequest fabricates a fully-stamped request.
func traceRequest(id uint64, core int) *mem.Request {
	return &mem.Request{
		ID: id, Core: core, Op: mem.Read,
		CreatedAt: sim.Cycle(10 * id), ShapedAt: sim.Cycle(10*id + 1),
		ArrivedMC: sim.Cycle(10*id + 2), IssuedDRAM: sim.Cycle(10*id + 3),
		ReadyAt: sim.Cycle(10*id + 5), RespShaped: sim.Cycle(10*id + 7),
		DeliveredAt: sim.Cycle(10*id + 9),
	}
}

// runTracer records n requests through a fresh tracer and returns the
// bytes of both artifacts.
func runTracer(t *testing.T, dir string, sampleN, seed uint64, n int) (jsonBytes, jsonlBytes []byte) {
	t.Helper()
	base := filepath.Join(dir, fmt.Sprintf("trace-%d-%d", sampleN, seed))
	tr, err := NewTracer(base, sampleN, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr.BeginRun("test")
	for i := 1; i <= n; i++ {
		tr.Delivered(traceRequest(uint64(i), i%4))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(base + ".json")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := os.ReadFile(base + ".jsonl")
	if err != nil {
		t.Fatal(err)
	}
	return jb, lb
}

func TestTracerChromeJSONValid(t *testing.T) {
	jb, _ := runTracer(t, t.TempDir(), 1, 1, 20)
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(jb, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	// 20 requests, each fully stamped: a whole-life event + 6 hops.
	if want := 20 * 7; len(doc.TraceEvents) != want {
		t.Fatalf("events = %d, want %d", len(doc.TraceEvents), want)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Name == "" {
			t.Fatalf("malformed event %+v", e)
		}
	}
}

func TestTracerSamplingDeterministicAndThinned(t *testing.T) {
	const n = 4000
	tr1, _ := NewTracer(filepath.Join(t.TempDir(), "a"), 8, 99)
	defer tr1.Close()
	tr2, _ := NewTracer(filepath.Join(t.TempDir(), "b"), 8, 99)
	defer tr2.Close()
	sampled := 0
	for id := uint64(1); id <= n; id++ {
		if tr1.Sampled(id) != tr2.Sampled(id) {
			t.Fatalf("sampling of id %d differs across same-seed tracers", id)
		}
		if tr1.Sampled(id) {
			sampled++
		}
	}
	// 1-in-8 sampling over 4000 ids: expect ~500; allow wide slack.
	if sampled < 300 || sampled > 700 {
		t.Fatalf("sampled %d of %d, want about %d", sampled, n, n/8)
	}
	trOther, _ := NewTracer(filepath.Join(t.TempDir(), "c"), 8, 100)
	defer trOther.Close()
	diff := 0
	for id := uint64(1); id <= n; id++ {
		if tr1.Sampled(id) != trOther.Sampled(id) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds sampled identical id sets")
	}
}

func TestTracerByteIdenticalAcrossRuns(t *testing.T) {
	j1, l1 := runTracer(t, t.TempDir(), 4, 7, 200)
	j2, l2 := runTracer(t, t.TempDir(), 4, 7, 200)
	if !bytes.Equal(l1, l2) {
		t.Fatal("jsonl span logs differ across identical runs")
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("chrome traces differ across identical runs")
	}
}

func TestTracerSkipsUnpopulatedHops(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "fake")
	tr, err := NewTracer(base, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A fake response: created and delivered, middle hops never stamped.
	tr.Delivered(&mem.Request{ID: 1, Core: 0, Op: mem.Read, Fake: true,
		CreatedAt: 100, RespShaped: 150, DeliveredAt: 160})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	jb, _ := os.ReadFile(base + ".json")
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(jb, &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "noc_to_mc", "mc_queue", "dram":
			t.Fatalf("unpopulated hop %q emitted", e.Name)
		}
	}
}

func TestTracerCloseIdempotent(t *testing.T) {
	tr, err := NewTracer(filepath.Join(t.TempDir(), "x"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Delivered(traceRequest(1, 0))
	if tr.Spans() != 1 {
		t.Fatalf("spans = %d", tr.Spans())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal("second close:", err)
	}
	tr.Delivered(traceRequest(2, 0)) // after close: dropped, no panic
	if tr.Spans() != 1 {
		t.Fatal("delivery after close was recorded")
	}
}

// --- context ----------------------------------------------------------

func TestContextBundleAndLabel(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context carries a bundle")
	}
	if Label(ctx) != "run" {
		t.Fatalf("default label = %q", Label(ctx))
	}
	b := &Bundle{Registry: NewRegistry()}
	ctx = NewContext(ctx, b)
	if FromContext(ctx) != b {
		t.Fatal("bundle round-trip")
	}
	ctx = WithLabel(ctx, "fig9")
	if Label(ctx) != "fig9" {
		t.Fatalf("label = %q", Label(ctx))
	}
	if NewContext(context.Background(), nil) != context.Background() {
		t.Fatal("nil bundle should not wrap the context")
	}
}

// TestGridSampleContinuesAcrossSystems: the second system sharing a
// bundle restarts its clock at 0, and its samples continue from the
// first system's last cycle, so the history runs forward. A sample is
// O(1) and allocates nothing once its series exist.
func TestGridSampleContinuesAcrossSystems(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("core.0.depth")
	hist := NewHistory(HistoryOpts{})
	b := &Bundle{Registry: reg, History: hist}
	for _, c := range []sim.Cycle{0, 65536, 100000, 0, 65536, 100000} {
		g.Set(float64(c))
		b.GridSample(c)
	}
	var buf bytes.Buffer
	if _, err := hist.DumpJSON(&buf, "", ""); err != nil {
		t.Fatal(err)
	}
	want := `{"dropped_series":0,"series":{"core.0.depth":[{"c":0,"v":0},{"c":65536,"v":65536},{"c":100000,"v":0},{"c":165536,"v":65536},{"c":200000,"v":100000}]}}`
	if got := strings.TrimSpace(buf.String()); got != want {
		t.Fatalf("history\n got %s\nwant %s", got, want)
	}
	c := sim.Cycle(100000)
	if n := testing.AllocsPerRun(100, func() { c += 65536; b.GridSample(c) }); n != 0 {
		t.Fatalf("GridSample allocates %.1f times per sample", n)
	}
}

// --- http server ------------------------------------------------------

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	s := &Server{Registry: r, Jobs: func() any {
		return []map[string]string{{"name": "fig9", "state": "running"}}
	}}
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, "hits 3") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	var jobs []map[string]string
	if err := json.Unmarshal([]byte(get("/jobs")), &jobs); err != nil {
		t.Fatalf("/jobs not JSON: %v", err)
	}
	if len(jobs) != 1 || jobs[0]["name"] != "fig9" {
		t.Fatalf("/jobs = %v", jobs)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Fatal("/debug/vars missing expvar content")
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/ missing profile index")
	}
}

func TestServerJobsNilFunc(t *testing.T) {
	s := &Server{Registry: NewRegistry()}
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if strings.TrimSpace(string(b)) != "[]" {
		t.Fatalf("/jobs without Jobs func = %q", b)
	}
}

func TestServerShutdownGraceful(t *testing.T) {
	s := &Server{Registry: NewRegistry()}
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A scrape works, then Shutdown stops the listener and returns.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
	if s.Degraded() {
		t.Fatal("orderly shutdown must not count as degradation")
	}
}

func TestServerShutdownSafeOnNilAndUnserved(t *testing.T) {
	var nilSrv *Server
	if err := nilSrv.Shutdown(context.Background()); err != nil {
		t.Fatalf("nil Shutdown: %v", err)
	}
	if nilSrv.Degraded() {
		t.Fatal("nil server cannot be degraded")
	}
	s := &Server{Registry: NewRegistry()}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("unserved Shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("unserved Close: %v", err)
	}
}

// TestServerDegradesOnAcceptFaults: with every accept injected to fail,
// the accept loop dies, and the server degrades to disabled — gauge to
// 1, one stderr-style notice, Degraded() true — without the caller
// doing anything.
func TestServerDegradesOnAcceptFaults(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var warn bytes.Buffer
	s := &Server{
		Registry: r,
		Faults:   iofault.NewInjector(iofault.Options{Seed: 9, AcceptFail: 1}),
		Warn: writerFunc(func(b []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return warn.Write(b)
		}),
	}
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, ok := r.Value("obs.server.degraded"); !ok || v != 0 {
		t.Fatalf("degraded gauge at start = %v/%v, want published 0", v, ok)
	}
	// Poke the listener so the accept loop meets its injected fault.
	http.Get("http://" + addr + "/metrics")
	deadline := time.Now().Add(2 * time.Second)
	for !s.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("server never degraded under 100% accept faults")
		}
		time.Sleep(time.Millisecond)
	}
	if v, _ := r.Value("obs.server.degraded"); v != 1 {
		t.Fatalf("degraded gauge = %v, want 1", v)
	}
	mu.Lock()
	notice := warn.String()
	mu.Unlock()
	if got := strings.Count(notice, "\n"); got != 1 || !strings.Contains(notice, "degraded") {
		t.Fatalf("want exactly one degradation notice line, got %q", notice)
	}
	// Close after degradation is still safe and returns promptly.
	if err := s.Close(); err != nil && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Close after degrade: %v", err)
	}
}

// --- progress reporter ------------------------------------------------

func TestProgressReporterEmitsAndStops(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	p := StartProgress(writerFunc(func(b []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(b)
	}), time.Millisecond, func() string { return "tick" })
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := buf.Len()
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reporter never emitted")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	p.Stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "tick") {
		t.Fatalf("output %q", out)
	}
}

func TestProgressReporterInert(t *testing.T) {
	StartProgress(io.Discard, 0, func() string { return "x" }).Stop()
	StartProgress(io.Discard, time.Millisecond, nil).Stop()
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }
