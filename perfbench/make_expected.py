#!/usr/bin/env python3
"""Regenerates perfbench/expected_ler.json, the reference logical error
rates the benchmark's z-bound check compares against.

    python3 perfbench/make_expected.py

Runs every sampling request shape of every workload once through the
sweep service with a reference seed of its own and a larger shot budget
(certification switched off, so requests that fail certification today
still get a reference value), and records each request's logical error
rate with its standard error as the tolerance.
"""

import json
import math
import os
import sys

import corpus
import run

REFERENCE_SEED = 20261017
SHOT_FACTOR = {"ler_sweep": 4, "certify_batch": 64, "warm_design_sweep": 16}
Z = 5.0


def reference_requests(workload):
    out = []
    for line in corpus.build(workload, REFERENCE_SEED):
        fields = dict(token.split("=", 1) for token in line.split())
        if int(fields.get("shots", 0)) <= 0:
            continue
        fields["shots"] = int(fields["shots"]) * SHOT_FACTOR[workload]
        fields["certify"] = 0
        out.append(corpus.format_request(fields))
    return out


def main():
    binary = run.build()
    out_dir = os.path.join(run.build_dir(), "perfbench-out", "expected")
    os.makedirs(out_dir, exist_ok=True)
    expected = {}
    for workload in SHOT_FACTOR:
        path = os.path.join(out_dir, workload + ".txt")
        with open(path, "w") as f:
            f.write("".join(line + "\n"
                            for line in reference_requests(workload)))
        results = os.path.join(out_dir, workload + ".jsonl")
        run.run_binary(binary, "batch", path,
                       ["--seconds", "0", "--results", results])
        for line in run.read_jsonl(results):
            if not line["ok"]:
                sys.exit(f"{line['label']}: {line['error']}")
            shots = line["shots"]
            p = line["logical_errors"] / shots
            expected[line["label"]] = {
                "ler": p, "shots": shots,
                "tolerance": math.sqrt(max(p, 1.0 / shots) * (1 - p) / shots),
            }
    with open(os.path.join(run.BENCH_DIR, "expected_ler.json"), "w") as f:
        json.dump({"seed": REFERENCE_SEED, "z": Z,
                   "requests": dict(sorted(expected.items()))}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
