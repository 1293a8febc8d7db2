package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"

	"camouflage/internal/campaign"
	"camouflage/internal/core"
	"camouflage/internal/harness"
	"camouflage/internal/sim"
)

// Process-isolation soak: each iteration runs a small campaign under
// -isolation=process where one worker SIGKILLs itself mid-job after
// checkpointing. The supervisor must restart it, the retry must resume
// from the checkpoint, and every table must come out byte-identical to
// an undisturbed in-process campaign. chaossoak re-execs itself as the
// worker binary (see the WorkerFlag check in main).

// soakWorkerJobs is the job list shared by the soak's supervisor and its
// re-exec'd workers. Misbehaviour is gated on InWorker() and the attempt
// number so the identical Job values run clean in-process.
func soakWorkerJobs() []campaign.Job {
	const total = 4 * core.SuperviseStride
	sim1 := func(ctx context.Context, name string) (*harness.Table, error) {
		return runSoakSim(ctx, name, total)
	}
	return []campaign.Job{
		{
			Name: "pi-ok",
			Spec: fmt.Sprintf("cycles=%d", total),
			Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
				return sim1(ctx, "pi-ok")
			},
		},
		{
			Name: "pi-crash",
			Spec: fmt.Sprintf("cycles=%d", total),
			Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
				if campaign.InWorker() && attempt == 1 {
					sys, err := buildSystem(ctx)
					if err != nil {
						return nil, err
					}
					if err := sys.RunContext(ctx, total/2); err != nil {
						return nil, err
					}
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
					select {} // unreachable: SIGKILL is not catchable
				}
				return sim1(ctx, "pi-crash")
			},
		},
	}
}

// runSoakSim is the clean path: resume from the latest checkpoint if one
// survives, run to total, and render a deterministic table.
func runSoakSim(ctx context.Context, name string, total sim.Cycle) (*harness.Table, error) {
	sys, err := buildSystem(ctx)
	if err != nil {
		return nil, err
	}
	remaining := total
	if h, payload, ok := campaign.LatestCheckpoint(ctx, core.ConfigHash(soakConfig())); ok {
		if err := sys.RestoreState(h, payload); err != nil {
			return nil, err
		}
		remaining = total - sim.Cycle(h.Cycle)
	}
	if err := sys.RunContext(ctx, remaining); err != nil {
		return nil, err
	}
	tb := &harness.Table{Title: name, Columns: []string{"metric", "value"}}
	tb.AddRow("total work", fmt.Sprint(sys.TotalWork()))
	tb.AddRow("system ipc", fmt.Sprintf("%.4f", sys.SystemIPC()))
	return tb, nil
}

// processIsolation is one soak round: an in-process reference campaign,
// then a process-isolated one with a mid-job worker SIGKILL, compared
// table-by-table.
func (s *soak) processIsolation(iterSeed uint64) error {
	jobs := soakWorkerJobs()
	ref, err := campaign.Run(context.Background(), jobs, campaign.Options{
		Workers: 2,
		Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		Seed: iterSeed,
	})
	if err != nil {
		return fmt.Errorf("in-process reference campaign: %w", err)
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "chaossoak-pi")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sum, err := campaign.Run(context.Background(), jobs, campaign.Options{
		Workers: 2,
		Retries: 2,
		Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		Seed:           iterSeed,
		Isolation:      campaign.IsolationProcess,
		WorkerCommand:  []string{exe, campaign.WorkerFlag},
		CheckpointDir:  dir,
		HeartbeatEvery: 50 * time.Millisecond,
		StallTimeout:   30 * time.Second,
		Log:            func(string, ...any) {},
	})
	if err != nil {
		return fmt.Errorf("process-isolated campaign: %w", err)
	}
	for i, res := range sum.Results {
		if res.Status != campaign.Done {
			return fmt.Errorf("job %s ended %s: %v", res.Job.Name, res.Status, res.Err)
		}
		got, gerr := json.Marshal(res.Table)
		want, werr := json.Marshal(ref.Results[i].Table)
		if gerr != nil || werr != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("job %s: process-isolated table differs from in-process reference", res.Job.Name)
		}
		switch res.Job.Name {
		case "pi-crash":
			if res.Attempts != 2 {
				return fmt.Errorf("pi-crash took %d attempts, want 2 (one SIGKILL death, one resumed retry)", res.Attempts)
			}
		case "pi-ok":
			if res.Attempts != 1 {
				return fmt.Errorf("pi-ok took %d attempts, want 1", res.Attempts)
			}
		}
	}
	if sum.Retried == 0 {
		return errors.New("the SIGKILLed worker was never retried")
	}
	return nil
}
