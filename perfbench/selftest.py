"""Self-tests for the benchmark's own logic (not part of the package tests).

    python3 perfbench/selftest.py

They need neither the fdsc package nor a built graph: reports are stand-in
objects with the public attributes the checker reads.
"""

from __future__ import annotations

import json
import sys
import unittest
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from spans import PER_LAYER, QUERY, Tracer, layer_metrics, self_times  # noqa: E402
from verdicts import oracle_problems, suite_problems  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The metric names as the benchmark's specification lists them.
SPEC_END_TO_END = ["setup_s", "verdict_s", "work_per_s", "peak_rss_mb"]
SPEC_PER_LAYER = [
    "graph.kappa.calls", "graph.kappa.s",
    "graph.build.calls", "graph.build.s",
    "graph.census.calls", "graph.census.s",
    "labels.neighbor_set.calls", "labels.neighbor_set.s",
    "cuts.apply_cut.calls", "cuts.apply_cut.s",
    "oracle.enumerate.s", "oracle.candidates",
    "oracle.sweep.s",
    "oracle.examined", "oracle.pruned", "oracle.checks", "oracle.prune_ratio",
    "modcheck.build.calls", "modcheck.build.s",
    "modcheck.query.calls", "modcheck.query.s", "modcheck.decided_ratio",
    "checks.label-involutions.s", "checks.label-degree-symmetry.s",
    "checks.label-top-swap-identity.s", "checks.cross-edge-targets.s",
    "checks.cross-edge-pair-rule.s", "checks.apex-no-common-neighbor.s",
    "checks.regularity-and-counts.s", "checks.module-decomposition.s",
    "checks.girth.s", "checks.complete-quotient.s",
    "checks.neighbor-common-bound.s", "checks.neighbor-triangle-independent-rest.s",
    "trace.overhead_s",
]
SPEC_WORKLOADS = ["sweep-n8", "oracle-table-n8", "lemmas"]
# sweep-n8 is run by hand only: one call per run leaves nothing to take a
# median of (see hand_run_only in layers.json).
SPEC_TIMED = ["oracle-table-n8", "lemmas"]


def _selfs(spans):
    """spans: list of (parent, start, end)."""
    parents = array("l", (p for p, _, _ in spans))
    starts = array("q", (s for _, s, _ in spans))
    ends = array("q", (e for _, _, e in spans))
    return list(self_times(parents, starts, ends))


class SelfTime(unittest.TestCase):
    def test_nested_and_back_to_back_children(self):
        spans = [
            (-1, 0, 100),  # 0: root
            (0, 10, 40),  # 1: child
            (1, 15, 35),  # 2: grandchild, inside 1 only
            (0, 40, 70),  # 3: child starting where 1 ends
        ]
        self.assertEqual(_selfs(spans), [40, 10, 20, 30])

    def test_order_of_spans_does_not_matter(self):
        spans = [(-1, 0, 100), (0, 10, 40), (1, 15, 35), (0, 40, 70)]
        order = [3, 2, 0, 1]
        where = {old: new for new, old in enumerate(order)}
        shuffled = [
            (where[spans[i][0]] if spans[i][0] >= 0 else -1, spans[i][1], spans[i][2])
            for i in order
        ]
        self.assertEqual(_selfs(shuffled), [30, 20, 40, 10])

    def test_overlapping_children_are_counted_once(self):
        spans = [(-1, 0, 100), (0, 10, 50), (0, 30, 60), (0, 55, 120)]
        # children cover 10..100 of the root: overlap 30..50 and 55..60 once,
        # and nothing past the root's end
        self.assertEqual(_selfs(spans)[0], 10)


class Queries(unittest.TestCase):
    def test_delegating_query_counts_once(self):
        tracer = Tracer()
        grouped = tracer.wrap(lambda touched: touched or None, QUERY)
        connected = tracer.wrap(lambda removed: grouped(removed), QUERY)
        sweep = tracer.wrap(lambda: [connected(1), grouped(0), connected(0)], "oracle.sweep")
        tracer.active = True
        sweep()
        tracer.active = False
        rows = tracer.summary()
        self.assertEqual(rows[QUERY]["calls"], 3)
        self.assertEqual(rows["oracle.sweep"]["calls"], 1)
        self.assertEqual(tracer.decided, 1)
        metrics = layer_metrics(rows, tracer.decided, {}, 0.0)
        self.assertAlmostEqual(metrics["modcheck.decided_ratio"], 1 / 3)

    def test_inactive_tracer_records_nothing(self):
        tracer = Tracer()
        f = tracer.wrap(lambda: 7, "graph.kappa")
        self.assertEqual(f(), 7)
        self.assertEqual(len(tracer.name_col), 0)


def _star(center, leaves):
    return SimpleNamespace(center=center, leaves=frozenset(leaves))


class VerdictChecker(unittest.TestCase):
    g = SimpleNamespace(adj={0: [1, 2], 5: [6, 7]})
    cut = staticmethod(lambda g, fam: SimpleNamespace(is_cut=True))
    no_cut = staticmethod(lambda g, fam: SimpleNamespace(is_cut=False))

    def oracle(self, value, lower, stars):
        cert = SimpleNamespace(elements=stars) if stars is not None else None
        return SimpleNamespace(value=value, proven_lower_bound=lower, certificate=cert)

    def test_correct_certificate_passes(self):
        r = self.oracle(2, 2, [_star(0, [1]), _star(5, [6])])
        self.assertEqual(oracle_problems(r, self.g, 1, "structure", 2, 2, self.cut), [])

    def test_wrong_value_is_flagged(self):
        r = self.oracle(3, 3, [_star(0, [1]), _star(5, [6]), _star(0, [2])])
        found = oracle_problems(r, self.g, 1, "structure", 2, 2, self.cut)
        self.assertTrue(any(p.startswith("value 3") for p in found), found)

    def test_missing_certificate_is_flagged(self):
        r = self.oracle(2, 2, None)
        found = oracle_problems(r, self.g, 1, "structure", 2, 2, self.cut)
        self.assertIn("certificate missing", found)

    def test_certificate_that_does_not_cut_is_flagged(self):
        r = self.oracle(2, 2, [_star(0, [1]), _star(5, [6])])
        found = oracle_problems(r, self.g, 1, "structure", 2, 2, self.no_cut)
        self.assertIn("certificate does not disconnect under apply_cut", found)

    def test_exhausted_search_passes_without_certificate(self):
        r = self.oracle(None, 4, None)
        self.assertEqual(oracle_problems(r, self.g, 5, "structure", None, 4, self.cut), [])

    @staticmethod
    def suite(failing, names=("label-involutions", "apex-no-common-neighbor")):
        checks = [
            SimpleNamespace(name=n, status="fail" if n in failing else "pass") for n in names
        ]
        return SimpleNamespace(checks=checks, overall=not failing)

    def test_d2_report_that_passes_is_flagged(self):
        self.assertNotEqual(suite_problems(self.suite(set()), 2), [])

    def test_d2_known_failure_is_the_expected_verdict(self):
        self.assertEqual(suite_problems(self.suite({"apex-no-common-neighbor"}), 2), [])

    def test_other_failures_are_flagged(self):
        self.assertNotEqual(suite_problems(self.suite({"apex-no-common-neighbor"}), 3), [])
        self.assertNotEqual(suite_problems(self.suite({"label-involutions"}), 2), [])


class Names(unittest.TestCase):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_names(self):
        self.assertEqual([n for n, _ in END_TO_END], SPEC_END_TO_END)
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]], SPEC_END_TO_END)
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(units, dict(END_TO_END))

    def test_per_layer_names(self):
        self.assertEqual([n for n, _ in PER_LAYER], SPEC_PER_LAYER)
        self.assertEqual([m["name"] for m in self.spec["per_layer"]], SPEC_PER_LAYER)
        units = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(units, dict(PER_LAYER))
        self.assertEqual(list(layer_metrics({}, 0, {}, 0.0)), SPEC_PER_LAYER)

    def test_workloads(self):
        self.assertEqual(list(WORKLOADS), SPEC_WORKLOADS)
        self.assertEqual(
            {w["name"]: w["why"] for w in self.spec["workloads"]},
            {name: WORKLOADS[name].why for name in SPEC_TIMED},
        )


if __name__ == "__main__":
    unittest.main()
