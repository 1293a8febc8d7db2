#!/usr/bin/env bash
# Checkpoint smoke test: SIGKILL a checkpointing camsim run mid-flight,
# validate the surviving checkpoint files, resume from the newest one,
# and require (a) the resume starts mid-run rather than from cycle 0 and
# (b) the resumed report is byte-identical to an uninterrupted run.
# SIGKILL — not SIGINT/SIGTERM — so nothing graceful runs: the resume
# must work from whatever the periodic crash-safe writes left behind.
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
go build -o "$workdir/obscheck" ./cmd/obscheck

CYCLES=2000000
EVERY=65536
ckdir="$workdir/ckpts"

# Reference: uninterrupted run, no checkpointing.
"$workdir/camsim" -scheme bdc -cycles "$CYCLES" >"$workdir/reference.txt" 2>/dev/null

# Victim: checkpointing run, killed with SIGKILL once a checkpoint lands.
"$workdir/camsim" -scheme bdc -cycles "$CYCLES" \
  -checkpoint-dir "$ckdir" -checkpoint-every "$EVERY" \
  >"$workdir/killed.txt" 2>"$workdir/killed.err" &
pid=$!
pids=$pid
for _ in $(seq 1 600); do
  if ls "$ckdir"/*.camckpt >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "ckpt-smoke: run exited before writing a checkpoint" >&2
    exit 1
  fi
  sleep 0.05
done
if ! kill -0 "$pid" 2>/dev/null; then
  echo "ckpt-smoke: run finished before the kill; raise CYCLES" >&2
  exit 1
fi
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pids=""
n=$(ls "$ckdir"/*.camckpt | wc -l)
echo "ckpt-smoke: SIGKILLed pid $pid with $n checkpoint(s) on disk"

# Every surviving file must be a valid container (magic, version,
# checksum) — the temp-file+rename write discipline guarantees no
# half-written checkpoint is ever visible under its final name.
"$workdir/obscheck" -ckpt "$ckdir"

# Resume must pick up mid-run from the newest checkpoint.
"$workdir/camsim" -scheme bdc -cycles "$CYCLES" \
  -resume-from "$ckdir" >"$workdir/resumed.txt" 2>"$workdir/resumed.err"
grep -q "resumed from .* at cycle" "$workdir/resumed.err" || {
  echo "ckpt-smoke: resume did not report a checkpoint:" >&2
  cat "$workdir/resumed.err" >&2
  exit 1
}
at=$(sed -n 's/.*at cycle \([0-9]*\).*/\1/p' "$workdir/resumed.err")
if [ -z "$at" ] || [ "$at" -eq 0 ]; then
  echo "ckpt-smoke: resume restarted from cycle 0 instead of mid-run" >&2
  exit 1
fi

diff "$workdir/reference.txt" "$workdir/resumed.txt" || {
  echo "ckpt-smoke: resumed report differs from the uninterrupted run" >&2
  exit 1
}
echo "ckpt-smoke: PASS (resumed at cycle $at of $CYCLES, output identical)"
