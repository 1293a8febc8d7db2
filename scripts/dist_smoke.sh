#!/usr/bin/env bash
# Distributed dispatch smoke test: run the scalability sweep through a
# real localhost TCP fleet — an experiments supervisor on an ephemeral
# port plus two camworker processes — while the fleet misbehaves:
#
#   - one worker is SIGKILLed mid-job (its lease must be re-dispatched);
#   - the other worker's supervisor link injects deterministic partition
#     faults that drop the connection mid-stream (it must reconnect with
#     backoff and resume from its spec-hash-keyed checkpoints).
#
# The campaign must still complete, the merged report must be
# byte-identical to a local -isolation=process run, and the journal must
# pass obscheck's fencing-token validation.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
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

go build -o "$workdir/experiments" ./cmd/experiments
go build -o "$workdir/camworker" ./cmd/camworker
go build -o "$workdir/obscheck" ./cmd/obscheck

CYCLES=400000
SEED=1
TOKEN=dist-smoke
SUITE_FLAGS=(-run scalability -cycles "$CYCLES" -seed "$SEED")

# Reference: the same campaign executed locally with process isolation.
"$workdir/experiments" "${SUITE_FLAGS[@]}" -isolation process \
  >"$workdir/reference.txt" 2>/dev/null

# Dispatch run: supervisor on an ephemeral port, journalled.
"$workdir/experiments" "${SUITE_FLAGS[@]}" \
  -listen 127.0.0.1:0 -fleet-token "$TOKEN" -lease 2s -fleet-wait 60s \
  -journal "$workdir/journal.jsonl" \
  >"$workdir/dispatched.txt" 2>"$workdir/supervisor.err" &
sup=$!
pids="$sup"

addr=""
for _ in $(seq 1 200); do
  addr=$(sed -n 's/^dispatch: listening on //p' "$workdir/supervisor.err" | head -n 1)
  [ -n "$addr" ] && break
  if ! kill -0 "$sup" 2>/dev/null; then
    echo "dist-smoke: supervisor exited before announcing its address" >&2
    cat "$workdir/supervisor.err" >&2
    exit 1
  fi
  sleep 0.05
done
if [ -z "$addr" ]; then
  echo "dist-smoke: supervisor never announced its listen address" >&2
  cat "$workdir/supervisor.err" >&2
  exit 1
fi
echo "dist-smoke: supervisor on $addr"

# Worker "victim": healthy link, killed mid-job below.
"$workdir/camworker" -connect "$addr" -fleet-token "$TOKEN" -id victim \
  -cycles "$CYCLES" -seed "$SEED" -checkpoint-dir "$workdir/ck-victim" \
  2>"$workdir/victim.err" &
victim=$!
disown "$victim" # silence bash's job-control notice when we SIGKILL it
pids="$pids $victim"

# Worker "survivor": its supervisor link partitions mid-stream with a
# deterministic seed; it must reconnect and resume.
"$workdir/camworker" -connect "$addr" -fleet-token "$TOKEN" -id survivor \
  -cycles "$CYCLES" -seed "$SEED" -checkpoint-dir "$workdir/ck-survivor" \
  -io-faults "seed=3,partition=0.35:60000" -max-dials 200 \
  2>"$workdir/survivor.err" &
survivor=$!
pids="$pids $survivor"

# SIGKILL the victim once the supervisor has leased it a job, so the
# kill lands mid-attempt and the lease must be re-dispatched.
leased=""
for _ in $(seq 1 600); do
  if grep -q "leased .* to victim" "$workdir/supervisor.err"; then
    leased=yes
    break
  fi
  if ! kill -0 "$sup" 2>/dev/null; then
    break # campaign already over; the victim never got work
  fi
  sleep 0.05
done
if [ -n "$leased" ]; then
  kill -9 "$victim" 2>/dev/null || true
  echo "dist-smoke: SIGKILLed worker 'victim' mid-job"
else
  echo "dist-smoke: WARNING: victim was never leased a job (fleet too fast?)" >&2
fi

if ! wait "$sup"; then
  echo "dist-smoke: dispatched campaign failed:" >&2
  cat "$workdir/supervisor.err" >&2
  exit 1
fi
pids="$victim $survivor"

grep -q "dispatch: worker .* connected" "$workdir/supervisor.err" || {
  echo "dist-smoke: no worker ever connected; the campaign ran degraded:" >&2
  cat "$workdir/supervisor.err" >&2
  exit 1
}
if grep -q "degrading to local execution" "$workdir/supervisor.err"; then
  echo "dist-smoke: campaign degraded to local execution despite a live fleet:" >&2
  cat "$workdir/supervisor.err" >&2
  exit 1
fi

diff "$workdir/reference.txt" "$workdir/dispatched.txt" || {
  echo "dist-smoke: dispatched report differs from the -isolation=process run" >&2
  exit 1
}
echo "dist-smoke: dispatched report byte-identical to local process-isolated run"

"$workdir/obscheck" -journal "$workdir/journal.jsonl"

echo "dist-smoke: PASS"
