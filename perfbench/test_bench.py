"""Self-tests of the request-level benchmark (run.py runs them first).

    python3 perfbench/test_bench.py
"""

import json
import os
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import corpus  # noqa: E402
import run  # noqa: E402


def fields_by_label(lines):
    out = {}
    for line in lines:
        fields = dict(token.split("=", 1) for token in line.split())
        out[fields["label"]] = fields
    return out


class CorpusTest(unittest.TestCase):
    def test_same_seed_gives_identical_corpus(self):
        for workload in corpus.WORKLOADS:
            self.assertEqual(corpus.build(workload, 7),
                             corpus.build(workload, 7), workload)

    def test_other_seed_changes_only_mc_seeds_and_order(self):
        for workload in corpus.WORKLOADS:
            a = corpus.build(workload, 1)
            b = corpus.build(workload, 2)
            self.assertNotEqual(a, b, workload)
            fa, fb = fields_by_label(a), fields_by_label(b)
            self.assertEqual(len(fa), len(a), "labels are unique")
            self.assertEqual(fa.keys(), fb.keys())
            for label in fa:
                ra, rb = dict(fa[label]), dict(fb[label])
                if "seed" in ra:
                    self.assertNotEqual(ra.pop("seed"), rb.pop("seed"))
                self.assertEqual(ra, rb, label)

    def test_corpus_sizes(self):
        sizes = {w: len(corpus.build(w, 0)) for w in corpus.WORKLOADS}
        self.assertEqual(sizes, {"compile_sweep": 252, "ler_sweep": 14,
                                 "certify_batch": 7,
                                 "warm_design_sweep": 50})


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.benchmark_spec()

    def test_workloads_match_corpora(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(corpus.WORKLOADS))

    def test_printer_emits_every_metric_with_unit(self):
        for kind in ("end_to_end", "per_layer"):
            specs = self.spec[kind]
            values = {s["name"]: 1.5 for s in specs}
            text = run.format_result(values, specs, True, 3, 0)
            lines = text.splitlines()
            for s in specs:
                self.assertIn(f"{s['name']} = 1.5 {s['unit']}", lines)
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertEqual(
                result["metrics"],
                {s["name"]: {"value": 1.5, "unit": s["unit"]}
                 for s in specs})

    def test_printer_rejects_a_missing_metric(self):
        specs = self.spec["end_to_end"]
        with self.assertRaises(KeyError):
            run.format_result({}, specs, True, 1, 0)

    def test_every_sampling_request_has_an_expected_ler(self):
        expected = run.expected_lers()["requests"]
        for workload in corpus.WORKLOADS:
            for fields in fields_by_label(corpus.build(workload, 0)).values():
                if int(fields.get("shots", 0)) > 0:
                    self.assertIn(fields["label"], expected)

    def test_known_failures_are_in_a_corpus(self):
        labels = set()
        for workload in corpus.WORKLOADS:
            labels |= fields_by_label(corpus.build(workload, 0)).keys()
        self.assertLessEqual(run.KNOWN_FAILURES.keys(), labels)


if __name__ == "__main__":
    unittest.main()
