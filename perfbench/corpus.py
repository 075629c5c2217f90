"""Seeded request corpora for the request-level benchmark.

Each benchmark workload is a fixed list of request shapes (one
`key=value` request line per candidate, in the grammar of
`core::ParseRequestLine`). The seed only picks the Monte-Carlo seed of
every sampling request and the order the requests are sent in, so two
corpora of one workload differ in nothing else.
"""

import hashlib
import random

TOPOLOGIES = ("linear", "grid", "switch")
WIRINGS = ("standard", "wise")

# Shot budgets, sized so one batch of each Monte-Carlo workload takes
# about two seconds on four workers.
LER_SHOTS = 65536
CERTIFY_SHOTS = 1024
DESIGN_SHOTS = 2048


def _memory(d, topology, capacity, **extra):
    return dict(family="rotated", distance=d, topology=topology,
                capacity=capacity, workload="memory", **extra)


def _surgery(d, **extra):
    return dict(family="merged_zz", distance=d, topology="grid",
                capacity=2, workload="surgery", **extra)


def _program(name, d, **extra):
    return dict(workload="program", program=name, distance=d, **extra)


def _mc(shots, **extra):
    """Fixed-shot Monte-Carlo keys; `seed` is filled in per corpus."""
    return dict(shots=shots, target_errors=0, seed=None, **extra)


def compile_sweep():
    """Paper main sweep: round time against capacity, topology, wiring."""
    out = []
    for d in range(3, 16, 2):
        for topology in TOPOLOGIES:
            for capacity in (2, 3, 5, 10, 20, 30):
                for wiring in WIRINGS:
                    label = f"cmp_d{d}_{topology}_c{capacity}_{wiring}"
                    out.append(_memory(d, topology, capacity, wiring=wiring,
                                       compile_only=1, validate=0,
                                       label=label))
    return out


def ler_sweep():
    """Fig. 8b / 10: logical error rate against distance and noise."""
    out = []
    for improvement in (1, 5):
        for topology in ("grid", "switch"):
            for d in (3, 5, 7):
                label = f"ler_mem_d{d}_{topology}_{improvement}x"
                out.append(_memory(d, topology, 2, improvement=improvement,
                                   validate=0, label=label,
                                   **_mc(LER_SHOTS)))
    for d in (3, 5):
        out.append(_surgery(d, validate=0, label=f"ler_surgery_d{d}",
                            **_mc(LER_SHOTS)))
    return out


def certify_batch():
    """Static validation and distance certification at every shape.

    `cert_mem_d7` is expected to fail: the certifier's exhaustive
    search stops at weight 4 and cannot rule out a distance below 7.
    """
    out = []
    for d in (3, 5, 7):
        out.append(_memory(d, "grid", 2, validate=1, certify=1,
                           label=f"cert_mem_d{d}", **_mc(CERTIFY_SHOTS)))
    for d in (3, 5):
        out.append(_surgery(d, validate=1, certify=1,
                            label=f"cert_surgery_d{d}",
                            **_mc(CERTIFY_SHOTS)))
    for name in ("cnot", "bell"):
        out.append(_program(name, 3, validate=1, certify=1,
                            label=f"cert_{name}_d3", **_mc(CERTIFY_SHOTS)))
    return out


def warm_design_sweep():
    """Design-space LER sweep served from a store filled during set-up.

    Linear d=7 is left out: its six points (52 MB DEMs, 1-3 s each)
    would triple the batch time and set it alone.
    """
    out = []
    for d in (3, 5, 7):
        for topology in TOPOLOGIES if d < 7 else ("grid", "switch"):
            for capacity in (2, 3, 5):
                for wiring in WIRINGS:
                    label = f"dse_d{d}_{topology}_c{capacity}_{wiring}"
                    out.append(_memory(d, topology, capacity, wiring=wiring,
                                       validate=0, label=label,
                                       **_mc(DESIGN_SHOTS)))
    out.append(_memory(5, "grid", 2, validate=0, certify=1,
                       label="dse_cert_mem_d5", **_mc(DESIGN_SHOTS)))
    out.append(_surgery(3, validate=0, certify=1,
                        label="dse_cert_surgery_d3", **_mc(DESIGN_SHOTS)))
    return out


WORKLOADS = {
    "compile_sweep": compile_sweep,
    "ler_sweep": ler_sweep,
    "certify_batch": certify_batch,
    "warm_design_sweep": warm_design_sweep,
}


def mc_seed(seed, label):
    """Monte-Carlo seed of one request: a pure function of the corpus
    seed and the request label, below 2^63 so it parses as int64."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def format_request(fields):
    return " ".join(f"{key}={value}" for key, value in fields.items())


def build(workload, seed):
    """Returns the corpus of `workload` for `seed` as request lines."""
    shapes = WORKLOADS[workload]()
    lines = []
    for shape in shapes:
        fields = dict(shape)
        if "seed" in fields:
            fields["seed"] = mc_seed(seed, fields["label"])
        lines.append(format_request(fields))
    random.Random(seed).shuffle(lines)
    return lines

