#!/usr/bin/env bash
# Paper byte-identity guard: regenerate the paper's full evaluation at
# seed 1 and 100k cycles with two jobs, and compare the first 16 hex
# digits of the sha256 of its stdout with the paper-regen digest for
# seed 1 recorded in perfbench/digests.json. scripts/paper_seed1.txt is
# that output, committed: it must hash to the same digest, and on a
# mismatch the script prints a diff -u of it against the fresh output,
# so the moved rows show. A refactor that moves any table by one byte
# fails here. The script reads digests.json and never writes it; a
# change that moves the output on purpose re-records it and updates
# paper_seed1.txt.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

want=$(awk '/"paper-regen"/ { in_block = 1 }
  in_block && $1 == "\"1\":" { gsub(/[^0-9a-f]/, "", $2); print $2; exit }' perfbench/digests.json)
if [ -z "$want" ]; then
  echo "paper-digest: no paper-regen digest for seed 1 in perfbench/digests.json" >&2
  exit 1
fi

committed=scripts/paper_seed1.txt
have=$(sha256sum "$committed" | cut -c1-16)
if [ "$have" != "$want" ]; then
  echo "paper-digest: $committed digest $have, want $want (perfbench/digests.json paper-regen seed 1)" >&2
  exit 1
fi

go build -o "$workdir/experiments" ./cmd/experiments
"$workdir/experiments" -jobs 2 -cycles 100000 -seed 1 > "$workdir/paper.txt"
got=$(sha256sum "$workdir/paper.txt" | cut -c1-16)

if [ "$got" != "$want" ]; then
  echo "paper-digest: stdout digest $got, want $want (perfbench/digests.json paper-regen seed 1); diff against $committed:" >&2
  diff -u --label "$committed" --label "fresh stdout" "$committed" "$workdir/paper.txt" || true
  exit 1
fi
echo "paper-digest: ok ($got)"
