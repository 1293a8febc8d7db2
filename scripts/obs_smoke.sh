#!/usr/bin/env bash
# Observability smoke test, three phases:
#
# 1. In-process campaign with the live introspection server, the
#    lifecycle tracer and the progress reporter all enabled: /metrics
#    and /jobs must scrape cleanly while jobs run, the dump must carry
#    campaign, cpu, shaper, memctrl and dram instruments, the progress
#    reporter must write its one-line status, and the emitted trace must
#    validate against the Chrome trace_event and span-log schemas.
#
# 2. Process-isolated campaign with the fleet telemetry plane armed:
#    the aggregated /metrics must carry worker.<jobhash>.* instruments
#    merged from heartbeat frames, /metrics/history and /alerts must
#    serve valid documents live, /jobs must carry the worker fleet
#    summary, and the alert JSONL log and history dump files must
#    validate after exit.
#
# 3. Determinism: a camsim run with -slo/-alerts/-history-out produces
#    byte-identical alert logs, history dumps and reports under
#    -isolation=inproc and -isolation=process.
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

bin="$workdir/experiments"
check="$workdir/obscheck"
go build -o "$bin" ./cmd/experiments
go build -o "$check" ./cmd/obscheck

# A run list heavy enough to keep the server up for a few seconds.
"$bin" -run headline,fig11,fig9 -cycles 200000 -jobs 2 \
  -obs-addr 127.0.0.1:0 -trace-out "$workdir/trace" -trace-sample 32 \
  -progress 200ms >"$workdir/out.txt" 2>"$workdir/err.txt" &
pid=$!
pids=$pid

# The server logs its bound address (port 0 → kernel-assigned) first.
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's!^obs: serving .* on http://!!p' "$workdir/err.txt" | head -n1)
  [ -n "$addr" ] && break
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "obs-smoke: campaign exited before the server came up" >&2
    cat "$workdir/err.txt" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "obs-smoke: server address never appeared on stderr" >&2
  exit 1
fi

# Scrape while jobs run: poll until per-component gauges registered by a
# live system show up, then validate the full dump and the /jobs view.
scraped=0
for _ in $(seq 1 100); do
  if "$check" -metrics "http://$addr" \
       -require campaign.jobs.done,cpu.0.ipc,shaper.resp.0.drift_l1,memctrl.0.queue_depth,dram.0.bus_utilization \
       >"$workdir/scrape.txt" 2>/dev/null; then
    scraped=1
    break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
if [ "$scraped" -ne 1 ]; then
  echo "obs-smoke: /metrics never served the required instruments" >&2
  "$check" -metrics "http://$addr" \
    -require campaign.jobs.done,cpu.0.ipc,shaper.resp.0.drift_l1,memctrl.0.queue_depth,dram.0.bus_utilization || true
  exit 1
fi
cat "$workdir/scrape.txt"
"$check" -jobs "http://$addr"

rc=0
wait "$pid" || rc=$?
pids=""
if [ "$rc" -ne 0 ]; then
  echo "obs-smoke: campaign failed (exit $rc)" >&2
  cat "$workdir/err.txt" >&2
  exit 1
fi

grep -q '^campaign: ' "$workdir/err.txt" || {
  echo "obs-smoke: progress reporter wrote no status line" >&2
  exit 1
}

# The trace files are finalized on exit; validate both artifacts.
"$check" -trace "$workdir/trace"
spans=$(wc -l <"$workdir/trace.jsonl")
if [ "$spans" -lt 1 ]; then
  echo "obs-smoke: trace recorded no spans" >&2
  exit 1
fi
echo "obs-smoke: phase 1 OK ($spans sampled spans, live scrape OK)"

# ---- Phase 2: fleet telemetry over a process-isolated campaign. ------
# Workers evaluate the SLO on their own supervision grids and piggyback
# metric deltas and alerts on heartbeat frames; the supervisor merges
# them under worker.<jobhash>. prefixes. sim.cycle>1 fires
# deterministically at every worker's first grid point. The cycle count
# keeps the campaign (and its server) up for several seconds on a 2-vCPU
# host; at 200000 cycles it exited in about 0.1 s, before the live scrape
# could reach it.
"$bin" -run fig11,fig9 -cycles 10000000 -jobs 2 -isolation=process \
  -slo 'sim.cycle>1' -alerts "$workdir/campaign-alerts.jsonl" \
  -history-out "$workdir/campaign-history.json" \
  -obs-addr 127.0.0.1:0 -progress 200ms \
  >"$workdir/out2.txt" 2>"$workdir/err2.txt" &
pid=$!
pids=$pid

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's!^obs: serving .* on http://!!p' "$workdir/err2.txt" | head -n1)
  [ -n "$addr" ] && break
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "obs-smoke: process campaign exited before the server came up" >&2
    cat "$workdir/err2.txt" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "obs-smoke: process campaign server address never appeared" >&2
  exit 1
fi

# Poll until worker deltas have merged into the aggregated registry,
# then validate the live history and alert documents and the fleet /jobs
# view.
scraped=0
for _ in $(seq 1 200); do
  if "$check" -metrics "http://$addr" \
       -require obs.alerts.raised,campaign.worker.heartbeats \
       -require-prefix worker. >"$workdir/scrape2.txt" 2>/dev/null; then
    scraped=1
    break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
if [ "$scraped" -ne 1 ]; then
  echo "obs-smoke: aggregated /metrics never carried worker.* instruments" >&2
  "$check" -metrics "http://$addr" \
    -require obs.alerts.raised,campaign.worker.heartbeats -require-prefix worker. || true
  exit 1
fi
cat "$workdir/scrape2.txt"
"$check" -history "http://$addr" -alerts "http://$addr" -jobs "http://$addr"

rc=0
wait "$pid" || rc=$?
pids=""
if [ "$rc" -ne 0 ]; then
  echo "obs-smoke: process campaign failed (exit $rc)" >&2
  cat "$workdir/err2.txt" >&2
  exit 1
fi

# The alert log and history dump are finalized on exit.
"$check" -history "$workdir/campaign-history.json" -alerts "$workdir/campaign-alerts.jsonl"
grep -q '"metric":"worker\.' "$workdir/campaign-alerts.jsonl" || {
  echo "obs-smoke: alert log carries no worker-prefixed alerts" >&2
  exit 1
}
echo "obs-smoke: phase 2 OK (fleet aggregation scrape OK)"

# ---- Phase 3: same-seed byte identity across isolation modes. --------
cam="$workdir/camsim"
go build -o "$cam" ./cmd/camsim
camflags=(-workload gcc,astar -scheme reqc -cycles 100000 -seed 7
  -slo 'sim.cycle>1,drift_l1>0.5')
"$cam" "${camflags[@]}" -alerts "$workdir/a-inproc.jsonl" \
  -history-out "$workdir/h-inproc.json" >"$workdir/r-inproc.txt"
"$cam" "${camflags[@]}" -alerts "$workdir/a-proc.jsonl" \
  -history-out "$workdir/h-proc.json" -isolation process \
  >"$workdir/r-proc.txt" 2>/dev/null
for pair in a-inproc.jsonl:a-proc.jsonl h-inproc.json:h-proc.json r-inproc.txt:r-proc.txt; do
  cmp "$workdir/${pair%%:*}" "$workdir/${pair##*:}" || {
    echo "obs-smoke: ${pair%%:*} differs between inproc and process isolation" >&2
    exit 1
  }
done
"$check" -history "$workdir/h-inproc.json" -alerts "$workdir/a-inproc.jsonl"
echo "obs-smoke: phase 3 OK (inproc/process byte-identical artifacts)"
echo "obs-smoke: PASS"
