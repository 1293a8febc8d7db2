#!/usr/bin/env bash
# camsim byte-identity guard: run a fixed set of camsim invocations and
# compare the first 16 hex digits of the sha256 of each run's stdout plus
# its exit code with the digest recorded for that run in
# scripts/camsim_digests.txt. The set covers every shaping scheme's
# shaper set-up on the -workload path, both example scenarios, a
# tracecap trace replayed through -workload, and link faults under the
# watchdog. The script reads the digest file and never writes it; a
# change that moves camsim's output on purpose re-records it.
set -euo pipefail

cd "$(dirname "$0")/.."
digests=$PWD/scripts/camsim_digests.txt
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/camsim" ./cmd/camsim
go build -o "$workdir/tracecap" ./cmd/tracecap
cp examples/scenarios/bdc.json examples/scenarios/covert-defense.json "$workdir/"
# camsim prints each core's workload name, so every run uses paths
# relative to the work directory.
cd "$workdir"
./tracecap -benchmark gcc -entries 20000 -seed 3 -o gcc.trace >/dev/null

# name|camsim arguments
runs=(
  "bdc|-scheme bdc -watchdog"
  "cs|-scheme cs"
  "reqc|-scheme reqc"
  "respc|-scheme respc"
  "tp|-scheme tp"
  "scenario-bdc|-scenario bdc.json"
  "scenario-covert-defense|-scenario covert-defense.json"
  "trace-replay|-workload mcf,astar,gcc.trace,gcc.trace"
  "link-faults|-scheme bdc -faults drop=0.001,delay=0.01 -watchdog"
)

failed=0
for run in "${runs[@]}"; do
  name=${run%%|*}
  read -r -a args <<<"${run#*|}"
  code=0
  ./camsim -cycles 300000 "${args[@]}" >out.txt 2>err.txt || code=$?
  echo "exit $code" >>out.txt
  got=$(sha256sum out.txt | cut -c1-16)
  want=$(awk -v n="$name" '$1 == n { print $2 }' "$digests")
  if [ "$got" != "$want" ]; then
    echo "camsim-digest: $name: digest $got, want ${want:-none} (camsim ${args[*]})" >&2
    failed=1
  else
    echo "camsim-digest: $name ok ($got)"
  fi
done
exit "$failed"
