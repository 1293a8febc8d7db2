#!/usr/bin/env bash
# Campaign smoke test: run a tiny-cycle campaign, SIGINT it at ~50%
# completion, then resume and require (a) completion, (b) that the resume
# actually served journal records instead of re-running everything, and
# (c) that the resumed output is byte-identical to an uninterrupted run.
# Finally (d) a second resume serves every job from the journal, so the
# derived headline table is computed from journaled fig12/fig13 tables
# alone and must still match byte for byte.
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
go build -o "$bin" ./cmd/experiments

# Cheap experiments only, tiny cycle counts, serialized so the SIGINT
# lands with jobs still pending. headline adds its three jobs (fig12,
# fig13a, fig13b) and derives its table from theirs.
RUN="table1,table2,fig4,fig14,fig15,fig11,headline"
CYCLES=60000
total=9
journal="$workdir/journal.jsonl"

# Reference: uninterrupted run.
"$bin" -run "$RUN" -cycles "$CYCLES" -jobs 1 >"$workdir/reference.txt" 2>/dev/null

# Interrupted run: SIGINT once the journal holds half the jobs.
"$bin" -run "$RUN" -cycles "$CYCLES" -jobs 1 -grace 30s \
  -journal "$journal" >"$workdir/interrupted.txt" 2>"$workdir/interrupted.err" &
pid=$!
pids=$pid
for _ in $(seq 1 300); do
  done_jobs=0
  if [ -f "$journal" ]; then
    done_jobs=$(wc -l <"$journal")
  fi
  if [ "$done_jobs" -ge $((total / 2)) ]; then
    break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "campaign-smoke: campaign exited before the interrupt" >&2
    exit 1
  fi
  sleep 0.1
done
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
pids=""
if [ "$rc" -eq 0 ]; then
  echo "campaign-smoke: interrupted campaign exited 0; expected a partial run" >&2
  exit 1
fi
recorded=$(wc -l <"$journal")
if [ "$recorded" -ge "$total" ]; then
  echo "campaign-smoke: interrupt landed too late ($recorded/$total jobs done)" >&2
  exit 1
fi
echo "campaign-smoke: interrupted with $recorded/$total jobs journaled (exit $rc)"

# Resume must finish the remainder and serve the recorded half.
"$bin" -run "$RUN" -cycles "$CYCLES" -jobs 1 \
  -journal "$journal" -resume >"$workdir/resumed.txt" 2>"$workdir/resumed.err"
grep -q "resumed $recorded" "$workdir/resumed.err" || {
  echo "campaign-smoke: summary does not report $recorded resumed jobs:" >&2
  cat "$workdir/resumed.err" >&2
  exit 1
}
diff "$workdir/reference.txt" "$workdir/resumed.txt" || {
  echo "campaign-smoke: resumed output differs from the uninterrupted run" >&2
  exit 1
}

# Replay: every table, the headline's inputs included, read back from the
# journal.
"$bin" -run "$RUN" -cycles "$CYCLES" -jobs 1 \
  -journal "$journal" -resume >"$workdir/replayed.txt" 2>"$workdir/replayed.err"
grep -q "resumed $total" "$workdir/replayed.err" || {
  echo "campaign-smoke: replay did not serve all $total jobs from the journal:" >&2
  cat "$workdir/replayed.err" >&2
  exit 1
}
diff "$workdir/reference.txt" "$workdir/replayed.txt" || {
  echo "campaign-smoke: output replayed from the journal differs from the uninterrupted run" >&2
  exit 1
}
echo "campaign-smoke: PASS (resume completed $((total - recorded)) remaining jobs, output identical; full journal replay identical)"
