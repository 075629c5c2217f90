#!/usr/bin/env python3
"""Request-level benchmark of the tiqec sweep service (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds `request_bench` (the tiqec library
through the repository's own CMakeLists plus perfbench/request_bench.cc)
under $CARGO_TARGET_DIR (default .bench_build), makes the seeded corpus
of the workload, and then

  --trace 0  sends it as timed batches through `store::RunSweepService`
             (closed loop, one client, a fixed-width worker pool) and
             reports the end-to-end metrics of BENCHMARK.json;
  --trace 1  replays every request serially through the public stage
             API with a span around each call and reports the per-layer
             metrics. Trace artifacts land in
             $CARGO_TARGET_DIR/perfbench-out/<workload>/.

Every correctness check is a hard failure: the last stdout line is the
result object with `"correct": false` and the exit code is 1. A build
failure exits non-zero without a result line.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True

import corpus  # noqa: E402

# Set-ups per run; setup_s is their median.
SETUPS = 3
# Workloads that run against an artifact store filled during set-up.
STORE_WORKLOADS = {"warm_design_sweep"}
# Requests that fail at this commit, with the error text they must carry.
KNOWN_FAILURES = {
    "cert_mem_d7": "distance below expected 7 cannot be ruled out",
}


def log(msg):
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def expected_lers():
    return load_json(os.path.join(BENCH_DIR, "expected_ler.json"))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    """Configures (once) and builds request_bench; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", out, "--target", "request_bench",
                    "-j", str(pool_width())],
                   check=True, stdout=sys.stderr, timeout=850)
    return os.path.join(out, "request_bench")


def pool_width():
    """Fixed worker-pool width: four, or fewer on a smaller machine."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def run_binary(binary, mode, requests, extra):
    cmd = [binary, mode, "--requests", requests,
           "--threads", str(pool_width())] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"request_bench {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ------------------------------------------------------------- checks

def check_results(lines, requests, errors):
    """Per-request checks on service result lines: one line per request,
    failures only where known and with their pinned text, and every
    logical error rate within the z-bound of its expected value."""
    if len(lines) != len(requests):
        errors.append(f"{len(lines)} result lines for {len(requests)} "
                      "requests")
    expected = expected_lers()
    z = expected["z"]
    for line in lines:
        label = line.get("label", "")
        if not line.get("ok"):
            error = line.get("error", "")
            if not error or "\n" in error:
                errors.append(f"{label}: failure without a clean error")
            elif label not in KNOWN_FAILURES:
                errors.append(f"{label}: unexpected failure: {error}")
            elif KNOWN_FAILURES[label] not in error:
                errors.append(f"{label}: unexpected error text: {error}")
            continue
        if "shots" not in line:
            continue
        ref = expected["requests"].get(label)
        if ref is None:
            errors.append(f"{label}: no expected logical error rate")
            continue
        n = line["shots"]
        observed = line["logical_errors"] / n
        p = max(ref["ler"], 1.0 / ref["shots"])
        bound = z * math.sqrt(p * (1 - p) / n + ref["tolerance"] ** 2)
        if abs(observed - ref["ler"]) > bound:
            errors.append(f"{label}: LER {observed:.6g} outside "
                          f"{ref['ler']:.6g} +/- {bound:.3g}")


def check_replay(replays, service, errors):
    """The serial stage-by-stage replay must reproduce the service."""
    by_label = {line["label"]: line for line in service}
    for r in replays:
        s = by_label.get(r["label"])
        if s is None:
            errors.append(f"replay {r['label']}: no service line")
            continue
        if r["ok"] != s["ok"] or (not r["ok"] and
                                  r["error"] != s.get("error")):
            errors.append(f"replay {r['label']}: outcome differs from the "
                          "service")
            continue
        if r["ok"] and "shots" in s:
            if (r["logical_errors"] != s["logical_errors"] or
                    r["per_observable_errors"] !=
                    s["per_observable_errors"]):
                errors.append(f"replay {r['label']}: logical errors "
                              f"{r['logical_errors']} "
                              f"{r['per_observable_errors']} != service "
                              f"{s['logical_errors']} "
                              f"{s['per_observable_errors']}")


# ------------------------------------------------------------- output

def corpus_table(replays):
    """Markdown characterization of the corpus, one row per request."""
    rows = ["| request | qubits | movement ops/round | detectors | DEM "
            "mechanisms | hyperedge share | non-trivial shots | us/shot | "
            "certify ms | replay ms |",
            "|---|---|---|---|---|---|---|---|---|---|"]
    for r in sorted(replays, key=lambda r: r["label"]):
        mech = r["dem_mechanisms"]
        shots = r["shots"]
        rows.append("| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |"
                    .format(
                        r["label"], r["qubits"], r["movement_ops"],
                        r["detectors"] or "-", mech or "-",
                        f"{r['dem_hyperedges'] / mech:.2f}" if mech else "-",
                        f"{r['decoded_shots'] / shots:.3f}" if shots else "-",
                        f"{1000 * r['mc_ms'] / shots:.2f}" if shots else "-",
                        f"{r['certify_ms']:.1f}" if r["certified"] else "-",
                        f"{r['total_ms']:.1f}"))
    return "\n".join(rows) + "\n"


def format_result(values, metric_specs, correct, attempted, failed):
    """Human-readable metric lines plus the final result object. Raises
    KeyError when a metric of `metric_specs` has no value."""
    lines = []
    metrics = {}
    for spec in metric_specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        lines.append(f"{spec['name']} = {value!r} {spec['unit']}")
    lines.append(json.dumps({"correct": correct, "attempted": attempted,
                             "failed": failed, "metrics": metrics}))
    return "\n".join(lines)


# ---------------------------------------------------------------- runs

def run_batches(binary, workload, requests_path, requests, out, seconds,
                errors):
    extra = ["--seconds", str(seconds), "--setups", str(SETUPS),
             "--results", os.path.join(out, "results.jsonl")]
    if workload in STORE_WORKLOADS:
        extra += ["--store", os.path.join(out, "store")]
    report = run_binary(binary, "batch", requests_path, extra)
    if report["mismatched_batches"]:
        errors.append(f"{report['mismatched_batches']} timed batches "
                      "differ from the warm-up batch")
    if not report["setups_agree"]:
        errors.append("warm-up batches of different set-ups differ")
    if workload in STORE_WORKLOADS:
        if not report["cold_warm_agree"]:
            errors.append("warm result lines differ from the cold fill")
        if report["warm_compiles"]:
            errors.append(f"{report['warm_compiles']} compiles against a "
                          "warm store")
    check_results(read_jsonl(os.path.join(out, "results.jsonl")), requests,
                  errors)
    batches = len(report["batch_wall_s"])
    values = {
        "batch_wall_s": statistics.median(report["batch_wall_s"]),
        "batch_cpu_s": statistics.median(report["batch_cpu_s"]),
        "setup_s": statistics.median(report["setup_s"]),
        "ok_fraction": report["ok"] / report["requests"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    log(f"{workload}: {report['requests']} requests, {batches} timed "
        f"batches, pool width {report['threads']}, store "
        f"{report['store_bytes'] / 1e6:.1f} MB, failed_fraction "
        f"{1 - values['ok_fraction']:.4f}")
    return values, report["requests"] * batches, \
        (report["requests"] - report["ok"]) * batches


def run_trace(binary, workload, requests_path, requests, out, errors):
    extra = ["--out", out]
    if workload in STORE_WORKLOADS:
        extra += ["--store", os.path.join(out, "store")]
    report = run_binary(binary, "trace", requests_path, extra)
    service = read_jsonl(os.path.join(out, "service.jsonl"))
    replays = read_jsonl(os.path.join(out, "replay.jsonl"))
    check_results(service, requests, errors)
    check_replay(replays, service, errors)
    with open(os.path.join(out, "corpus_table.md"), "w") as f:
        f.write(corpus_table(replays[:len(requests)]))
    layers = load_json(os.path.join(out, "layers.json"))
    log(f"{'span':<20} {'count':>7} {'total ms':>12} {'self ms':>12}")
    for name, t in sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"]):
        log(f"{name:<20} {t['count']:>7} {t['total_ms']:>12.1f} "
            f"{t['self_ms']:>12.1f}")
    log(f"{workload}: {report['spans']} spans; trace, layer self times "
        f"and corpus table in {out}")
    return report["metrics"], report["requests"], \
        report["requests"] - report["ok"]


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_bench")
    result = unittest.TextTestRunner(stream=sys.stderr,
                                     verbosity=0).run(suite)
    return result.wasSuccessful()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not self_test():
        log("benchmark self-tests failed")
        return 1
    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    out = os.path.join(build_dir(), "perfbench-out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    requests = corpus.build(args.workload, args.seed)
    requests_path = os.path.join(out, "requests.txt")
    with open(requests_path, "w") as f:
        f.write("".join(line + "\n" for line in requests))

    spec = benchmark_spec()
    errors = []
    try:
        if args.trace:
            values, attempted, failed = run_trace(
                binary, args.workload, requests_path, requests, out, errors)
        else:
            values, attempted, failed = run_batches(
                binary, args.workload, requests_path, requests, out,
                args.seconds, errors)
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as e:
        log(f"benchmark run failed: {e}")
        return 1
    finally:
        shutil.rmtree(os.path.join(out, "store"), ignore_errors=True)
    for error in errors:
        log("CHECK FAILED: " + error)
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    print(format_result(values, metric_specs, not errors, attempted, failed))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
