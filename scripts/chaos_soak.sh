#!/usr/bin/env bash
# Chaos soak: loop checkpointing camsim runs under random SIGKILL,
# injected disk faults and at-rest checkpoint corruption, resuming every
# time and byte-comparing the final report against a clean reference,
# plus the in-process degradation suite (dead checkpoint disk, failing
# journal, dying obs accept loop), a process-isolated campaign whose
# worker SIGKILLs itself mid-job (the retry runs the job again from
# cycle 0 and must match the in-process tables byte for byte), and
# goroutine-leak and heap-growth checks per iteration. See cmd/chaossoak.
#
# Knobs (env):
#   CHAOS_SOAK_ITERS  iterations (default 20)
#   CHAOS_SOAK_SEED   master seed; fault schedules derive from it (default 1)
#   CHAOS_SOAK_FULL   non-zero selects the full randomized profile:
#                     more kill rounds per iteration and read/corrupt
#                     faults on the resume path
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/camsim" ./cmd/camsim
go build -o "$workdir/chaossoak" ./cmd/chaossoak

args=(
  -camsim "$workdir/camsim"
  -iters "${CHAOS_SOAK_ITERS:-20}"
  -seed "${CHAOS_SOAK_SEED:-1}"
)
if [ "${CHAOS_SOAK_FULL:-0}" != 0 ]; then
  args+=(-full)
fi

exec "$workdir/chaossoak" "${args[@]}"
