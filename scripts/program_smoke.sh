#!/usr/bin/env bash
# Cold + warm store smoke gate (DESIGN.md §5.4, §6.5): run a request
# batch twice against one artifact store through a request-file tool —
# `tiqec_sweep_service` or `tiqec_certify`, which share the command
# line `<requests> <out.jsonl> --store DIR` and the summary counters.
# The cold run compiles each unique code once and persists every
# artifact; the warm run must evaluate the whole batch off the store —
# zero compiles, zero annotates, zero sim builds, nothing corrupt —
# and reproduce the cold run's JSONL byte-for-byte. With the canonical
# logical programs this pins the program-aware sim-store key (the
# `|program={...}` canonical-text extension) end-to-end: a key
# collision or a non-deterministic stitch shows up as a byte diff here
# before it can skew any sweep.
set -euo pipefail

usage="usage: program_smoke.sh <tiqec_sweep_service> <requests.txt> <workdir>"
service=${1:?$usage}
requests=${2:?$usage}
workdir=${3:?$usage}

mkdir -p "$workdir"
store="$workdir/program_store"
rm -rf "$store"

"$service" "$requests" "$workdir/cold.jsonl" --store "$store" \
    | tee "$workdir/cold_summary.txt"
"$service" "$requests" "$workdir/warm.jsonl" --store "$store" \
    | tee "$workdir/warm_summary.txt"

grep -F '"compiles":0' "$workdir/warm_summary.txt"
grep -F '"annotates":0' "$workdir/warm_summary.txt"
grep -F '"sim_builds":0' "$workdir/warm_summary.txt"
grep -F '"store_corrupt":0' "$workdir/warm_summary.txt"
cmp "$workdir/cold.jsonl" "$workdir/warm.jsonl"
echo "program smoke: warm run byte-identical with zero compiles"
