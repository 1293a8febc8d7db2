package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"camouflage/internal/campaign"
)

// Process isolation for single runs: -isolation=process re-execs camsim
// as an inproc child and supervises it with the campaign worker
// machinery — heartbeats on inherited fd 3 drive a liveness monitor and
// an RSS ceiling, and a child that crashes, stalls or breaches the
// ceiling is restarted (resuming from -checkpoint-dir when armed). The
// child's stdout is buffered and emitted only for the attempt that
// completes, so a supervised run's report stays byte-identical to an
// unsupervised one.

// heartbeatEnv tells a re-exec'd child to stream heartbeats on inherited
// fd 3 at the given interval in milliseconds.
const heartbeatEnv = "CAMSIM_HEARTBEAT_MS"

// selfAttempts bounds supervised restarts of a single run.
const selfAttempts = 3

// workerHeartbeats wires the child side: when the supervisor's env
// marker is present, return a writer on fd 3 (already announcing the
// start frame) for supervise() to hook into the simulation. Returns nil
// in ordinary unsupervised runs.
func workerHeartbeats() *campaign.HeartbeatWriter {
	ms, err := strconv.ParseInt(os.Getenv(heartbeatEnv), 10, 64)
	if err != nil || ms <= 0 {
		return nil
	}
	pipe := os.NewFile(3, "camsim-heartbeat")
	hw := campaign.NewHeartbeatWriter(func(f campaign.HeartbeatFrame) error {
		return campaign.WriteFrameJSON(pipe, f)
	}, time.Duration(ms)*time.Millisecond)
	hw.Emit(campaign.FrameStart)
	return hw
}

// superviseSelf runs the supervisor side and returns the process exit
// code. Each attempt re-execs this binary with the original arguments
// plus "-isolation inproc" (flag precedence: last one wins), so the
// child performs the exact run the operator asked for, minus the
// supervision.
func superviseSelf(stall time.Duration, memLimit int64, ckptDir, resumeFrom string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "camsim:", err)
		return 1
	}
	hbEvery := stall / 8
	if hbEvery < 10*time.Millisecond {
		hbEvery = 10 * time.Millisecond
	}
	if hbEvery > campaign.DefaultHeartbeatEvery {
		hbEvery = campaign.DefaultHeartbeatEvery
	}

	// ^C/SIGTERM soft-cancel the child (SIGTERM, then SIGKILL after the
	// grace window) instead of killing the supervisor first.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for attempt := 1; attempt <= selfAttempts; attempt++ {
		args := append([]string{}, os.Args[1:]...)
		args = append(args, "-isolation", "inproc")
		if attempt > 1 && ckptDir != "" && resumeFrom == "" {
			// The previous attempt's checkpoints let the retry cover only
			// the remaining cycles.
			args = append(args, "-resume-from", ckptDir)
		}
		var out bytes.Buffer
		res := campaign.RunProc(ctx, campaign.ProcSpec{
			Command:      append([]string{exe}, args...),
			Env:          append(os.Environ(), fmt.Sprintf("%s=%d", heartbeatEnv, hbEvery.Milliseconds())),
			Stdout:       &out,
			Stderr:       os.Stderr,
			StallTimeout: stall,
			MemLimit:     memLimit,
		})
		switch {
		case res.Err != nil:
			fmt.Fprintln(os.Stderr, "camsim:", res.Err)
			return 1
		case res.ExitCode == 0:
			os.Stdout.Write(out.Bytes())
			if attempt > 1 {
				fmt.Fprintf(os.Stderr, "camsim: run completed on attempt %d\n", attempt)
			}
			return 0
		case res.SoftCanceled:
			// Operator cancellation: the partial report is still useful.
			os.Stdout.Write(out.Bytes())
			return 130
		case res.OOMKilled:
			fmt.Fprintf(os.Stderr, "camsim: worker exceeded the memory ceiling (peak rss %d > limit %d bytes) on attempt %d\n",
				res.PeakRSS, memLimit, attempt)
		case res.StallKilled:
			fmt.Fprintf(os.Stderr, "camsim: worker stalled (no heartbeat in %v, last cycle %d) on attempt %d\n",
				stall, res.LastCycle, attempt)
		case res.Signal != "":
			fmt.Fprintf(os.Stderr, "camsim: worker killed by signal (%s) on attempt %d\n", res.Signal, attempt)
		default:
			// A clean non-zero exit is the child reporting its own error
			// (bad flags, scenario failures, violated invariants): a retry
			// would fail identically, so pass it through.
			os.Stdout.Write(out.Bytes())
			return res.ExitCode
		}
	}
	fmt.Fprintf(os.Stderr, "camsim: giving up after %d attempts\n", selfAttempts)
	return 1
}
