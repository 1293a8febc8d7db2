package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"camouflage/internal/core"
	"camouflage/internal/obs"
)

// TestFleetTelemetryAggregation runs a process-isolated campaign with the
// telemetry plane armed: worker metric deltas must surface in the
// supervisor registry under `worker.<jobhash>.` prefixes, merged scalars
// must land in the history store, and worker-raised SLO alerts must be
// ingested (prefixed) into the supervisor's monitor and alert log.
func TestFleetTelemetryAggregation(t *testing.T) {
	checkGoroutines(t)
	jobs := []Job{okJob("w-ok-a"), okJob("w-ok-b")}

	reg := obs.NewRegistry()
	hist := obs.NewHistory(obs.HistoryOpts{})
	// sim.cycle exceeds 1 at the first grid point past cycle 0, so every
	// worker raises exactly one alert per attempt.
	rules, err := obs.ParseSLOSpec("sim.cycle>1")
	if err != nil {
		t.Fatal(err)
	}
	var alertLog bytes.Buffer
	mon := obs.NewSLOMonitor(rules, reg, &alertLog)

	opt := procOpts(t)
	opt.Workers = 2
	opt.Progress = NewProgress(reg)
	opt.Registry = reg
	opt.History = hist
	opt.Alerts = mon
	opt.SLO = "sim.cycle>1"
	opt.Log = t.Logf

	sum, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range sum.Results {
		if res.Status != Done {
			t.Fatalf("job %s ended %s: %v", res.Job.Name, res.Status, res.Err)
		}
	}

	for _, job := range jobs {
		prefix := "worker." + job.Hash() + "."
		// The final done frame flushes the last delta, so the merged
		// sim.cycle gauge must hold the job's full cycle count.
		if v, ok := reg.Value(prefix + "sim.cycle"); !ok || v != float64(core.SuperviseStride) {
			t.Errorf("%ssim.cycle = %v (ok=%v), want %d", prefix, v, ok, core.SuperviseStride)
		}
		// Merged scalars are recorded as time series at frame cycles.
		var sb strings.Builder
		if _, err := hist.DumpJSON(&sb, prefix+"sim.cycle", ""); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), `"`+prefix+`sim.cycle":[{`) {
			t.Errorf("history has no series for %ssim.cycle: %s", prefix, sb.String())
		}
		// The worker's alert arrived with its metric rewritten under the
		// worker prefix.
		if !strings.Contains(alertLog.String(), `"metric":"`+prefix+`sim.cycle"`) {
			t.Errorf("alert log missing ingested alert for %s:\n%s", prefix, alertLog.String())
		}
	}
	if v, _ := reg.Value("obs.alerts.raised"); v < 2 {
		t.Errorf("obs.alerts.raised = %v, want >= 2 (one per worker)", v)
	}

	// /jobs carries the fleet worker summary alongside job states.
	view := opt.Progress.JobsSnapshot()
	if len(view.Jobs) != 2 {
		t.Fatalf("JobsSnapshot jobs = %d, want 2", len(view.Jobs))
	}
	if view.Worker.Heartbeats == 0 {
		t.Error("JobsSnapshot worker.heartbeats = 0; fleet summary not populated")
	}
}

// TestProgressLineIncludesWorkerCounters: the one-line status appends
// fleet-health counters once they are non-zero and omits them before.
func TestProgressLineIncludesWorkerCounters(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewProgress(reg)
	p.add("j1", "h1", StateQueued)
	if line := p.Line(); strings.Contains(line, "restarts") {
		t.Fatalf("quiet campaign line mentions restarts: %q", line)
	}
	wm := p.workerMetrics()
	wm.restarts.Inc()
	wm.restarts.Inc()
	wm.stallsKilled.Inc()
	line := p.Line()
	for _, want := range []string{"2 restarts", "1 stalls_killed"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "oom_killed") {
		t.Errorf("line %q mentions zero counter oom_killed", line)
	}
	// Nil-safety for metrics-less trackers.
	var np *Progress
	if np.Line() != "" || len(np.JobsSnapshot().Jobs) != 0 {
		t.Error("nil progress not inert")
	}
}
