#!/usr/bin/env bash
# Process-isolation smoke test: run camsim under -isolation=process,
# SIGKILL the re-exec'd worker (never the supervisor) once a checkpoint
# lands, and require that the supervisor restarts it, the retry resumes
# mid-run, the supervisor exits 0, and the final report is byte-identical
# to a plain in-process run. Then the same byte-identity check for the
# experiments driver's process-isolated campaign path.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
# pids lists the background processes still running. On any exit, TERM
# and reap them before removing the workdir: a TERMed process-isolated
# supervisor drains its own workers before it exits.
pids=""
cleanup() {
  if [ -n "$pids" ]; then
    # shellcheck disable=SC2086
    kill $pids 2>/dev/null || true
    # shellcheck disable=SC2086
    wait $pids 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/camsim" ./cmd/camsim
go build -o "$workdir/experiments" ./cmd/experiments

CYCLES=2000000
EVERY=65536
ckdir="$workdir/ckpts"

# Reference: plain in-process run, no supervision, no checkpointing.
"$workdir/camsim" -scheme bdc -cycles "$CYCLES" >"$workdir/reference.txt" 2>/dev/null

# Supervised victim: the supervisor re-execs camsim as a worker; we
# SIGKILL the worker once a checkpoint file exists.
"$workdir/camsim" -scheme bdc -cycles "$CYCLES" \
  -isolation process -checkpoint-dir "$ckdir" -checkpoint-every "$EVERY" \
  >"$workdir/supervised.txt" 2>"$workdir/supervised.err" &
pid=$!
pids=$pid
worker=""
for _ in $(seq 1 600); do
  if ls "$ckdir"/*.camckpt >/dev/null 2>&1; then
    worker=$(pgrep -P "$pid" | head -n 1 || true)
    [ -n "$worker" ] && break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "worker-smoke: supervisor exited before a checkpoint was written" >&2
    cat "$workdir/supervised.err" >&2
    exit 1
  fi
  sleep 0.05
done
if [ -z "$worker" ]; then
  echo "worker-smoke: no worker process found under supervisor $pid" >&2
  exit 1
fi
kill -9 "$worker"
echo "worker-smoke: SIGKILLed worker $worker under supervisor $pid"

# The supervisor itself must absorb the crash: restart the worker,
# resume from the surviving checkpoints, and exit 0.
rc=0
wait "$pid" || rc=$?
pids=""
if [ "$rc" -ne 0 ]; then
  echo "worker-smoke: supervisor failed after the worker SIGKILL:" >&2
  cat "$workdir/supervised.err" >&2
  exit 1
fi
grep -q "killed by signal" "$workdir/supervised.err" || {
  echo "worker-smoke: supervisor never reported the worker death:" >&2
  cat "$workdir/supervised.err" >&2
  exit 1
}
grep -q "resumed from .* at cycle" "$workdir/supervised.err" || {
  echo "worker-smoke: restarted worker did not resume from a checkpoint:" >&2
  cat "$workdir/supervised.err" >&2
  exit 1
}
diff "$workdir/reference.txt" "$workdir/supervised.txt" || {
  echo "worker-smoke: supervised report differs from the in-process run" >&2
  exit 1
}
at=$(sed -n 's/.*resumed from .* at cycle \([0-9]*\).*/\1/p' "$workdir/supervised.err" | head -n 1)
echo "worker-smoke: camsim PASS (worker restarted, resumed at cycle ${at:-?}, output identical)"

# Experiments driver: a process-isolated campaign must emit tables
# byte-identical to the in-process campaign.
"$workdir/experiments" -run table1,table2 >"$workdir/exp_inproc.txt" 2>/dev/null
"$workdir/experiments" -run table1,table2 -isolation process \
  >"$workdir/exp_process.txt" 2>"$workdir/exp_process.err" || {
  echo "worker-smoke: process-isolated experiments run failed:" >&2
  cat "$workdir/exp_process.err" >&2
  exit 1
}
diff "$workdir/exp_inproc.txt" "$workdir/exp_process.txt" || {
  echo "worker-smoke: process-isolated experiment tables differ from in-process" >&2
  exit 1
}
echo "worker-smoke: PASS"
