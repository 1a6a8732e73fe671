"""Self-tests of the benchmark's own checks and self-time arithmetic.

    python3 bench/selftest.py

Each check must reject a report that was altered in one place: C raised
by 1e-3, the label changed, an equality time moved, the oracle minimum
changed.  The span arithmetic must give the expected self times on a
synthetic span tree.
"""

from __future__ import annotations

import copy
import math
import os
import sys
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qwsed  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402


def _report(graph, u, kind):
    return qwsed.classify(graph, u, qwsed.parse_matrix_kind(kind)).to_dict()


class CheckRejectsAlteredReports(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        k5 = qwsed.build_family(qwsed.parse_family("complete:5"))
        cls.k5 = _report(k5, 0, "adjacency")
        cls.k5_graph = checks.complete(5)
        cls.k5_expect = workloads.lattice_constant([5])
        lolli = qwsed.build_family(qwsed.parse_family("lollipop:5,2"))
        cls.lolli = _report(lolli, 2, "adjacency")
        cls.lolli_graph = checks.lollipop(5, 2)

    def problems(self, rep, which="k5"):
        if which == "k5":
            return checks.check_report(rep, self.k5_graph, "adjacency", self.k5_expect)
        return checks.check_report(rep, self.lolli_graph, "adjacency")

    def test_genuine_reports_pass(self):
        self.assertEqual(self.problems(self.k5), [])
        self.assertEqual(self.problems(self.lolli, "lollipop"), [])

    def test_raised_constant(self):
        for which, rep in (("k5", self.k5), ("lollipop", self.lolli)):
            bad = copy.deepcopy(rep)
            bad["C"] += 1e-3
            self.assertTrue(self.problems(bad, which), which)

    def test_changed_label(self):
        for label in ("sedentary-at-least", "sharply-sedentary", "not-sedentary",
                      "unresolved"):
            for which, rep in (("k5", self.k5), ("lollipop", self.lolli)):
                if rep["classification"] == label:
                    continue
                bad = copy.deepcopy(rep)
                bad["classification"] = label
                self.assertTrue(self.problems(bad, which), (which, label))

    def test_moved_equality_time(self):
        bad = copy.deepcopy(self.k5)
        timed = [c for c in bad["certificates"] if c["equality_times"]]
        self.assertTrue(timed)
        timed[0]["equality_times"][0] += 1e-3
        self.assertTrue(self.problems(bad))

    def test_changed_oracle_minimum(self):
        for which, rep in (("k5", self.k5), ("lollipop", self.lolli)):
            for delta in (1e-3, -1e-3):
                bad = copy.deepcopy(rep)
                bad["oracle"]["minimum"] += delta
                self.assertTrue(self.problems(bad, which), (which, delta))

    def test_star_square_centre_fault_and_its_correction(self):
        m = 3
        g = qwsed.cartesian_product(qwsed.star_graph(m), qwsed.star_graph(m))
        rep = _report(g, 0, "adjacency")
        ref = checks.cartesian(checks.star(m), checks.star(m))
        expect = workloads.star_square_constant(m, "adjacency", 0)
        found = checks.check_report(rep, ref, "adjacency", expect)
        self.assertTrue(any("states a zero" in p for p in found), found)
        # the diagonal is cos(sqrt(3) t)^2, zero at pi / (2 sqrt 3)
        fixed = copy.deepcopy(rep)
        for c in fixed["certificates"]:
            c["equality_times"] = [math.pi / (2.0 * math.sqrt(m))
                                   for _ in c["equality_times"]]
        fixed["oracle"]["argmin"] = math.pi / (2.0 * math.sqrt(m))
        self.assertEqual(checks.check_report(fixed, ref, "adjacency", expect), [])


class PaperConstants(unittest.TestCase):
    def test_constants(self):
        self.assertAlmostEqual(workloads.lattice_constant([5, 5, 5]).constant, 0.6 ** 3)
        self.assertTrue(workloads.lattice_constant([3, 5]).attained)
        self.assertFalse(workloads.lattice_constant([4, 9]).attained)
        self.assertFalse(workloads.star_leaf_constant(4, "laplacian").attained)
        e = workloads.star_square_constant(3, "laplacian", 0)
        self.assertAlmostEqual(e.constant, 0.25)
        self.assertTrue(e.attained)
        self.assertAlmostEqual(workloads.star_square_constant(3, "adjacency", 5).constant,
                               1.0 / 9.0)

    def test_twin_class_size(self):
        self.assertEqual(checks.lollipop(5, 2).twin_class_size(2), 4)
        self.assertEqual(checks.lollipop(5, 2).twin_class_size(0), 1)
        self.assertEqual(checks.star(6).twin_class_size(1), 6)

    def test_matrix_matches_qwsed(self):
        g = checks.cone(checks.cycle(5))
        q = qwsed.build_family(qwsed.parse_family("cone:cycle:5"))
        for kind in ("adjacency", "laplacian", "norm-adj", "norm-lap"):
            ours = g.matrix(kind)
            theirs = qwsed.assemble(q, qwsed.parse_matrix_kind(kind)).matrix
            self.assertLess(abs(ours - theirs).max(), 1e-12, kind)


def _span(sid, start, end, parent, name="x"):
    return Span(sid, name, start, end, parent, 0)


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        spans = [_span(0, 0, 100, None), _span(1, 10, 40, 0), _span(2, 15, 25, 1),
                 _span(3, 50, 90, 0)]
        own, parallel = self_times(spans)
        self.assertEqual(own, {0: 30, 1: 20, 2: 10, 3: 40})
        self.assertEqual(parallel, 0)
        self.assertEqual(sum(own.values()), 100)

    def test_overlapping_children(self):
        spans = [_span(0, 0, 100, None), _span(1, 10, 60, 0), _span(2, 40, 80, 0)]
        own, parallel = self_times(spans)
        self.assertEqual(own, {0: 30, 1: 50, 2: 40})
        self.assertEqual(parallel, 20)
        self.assertEqual(sum(own.values()) - parallel, 100)

    def test_layer_metrics_per_round(self):
        ms = 1_000_000
        spans = [Span(0, "cli.main", 0, 10 * ms, None, 0),
                 Span(1, "spectral.decompose", ms, 3 * ms, 0, 0),
                 Span(2, "walk.minimize_diagonal", 4 * ms, 9 * ms, 0, 0,
                      {"grid": 4096, "refinements": 7, "support": 3}),
                 Span(3, "spectral.support", 5 * ms, 6 * ms, 2, 0)]
        out = layer_metrics(spans, rounds=2)
        self.assertAlmostEqual(out["cli.self_ms"], 1.5)
        self.assertAlmostEqual(out["spectral.decompose_ms"], 1.0)
        self.assertAlmostEqual(out["spectral.self_ms"], 1.5)
        self.assertAlmostEqual(out["walk.minimize_ms"], 2.0)
        self.assertAlmostEqual(out["walk.grid_points"], 2048)
        self.assertAlmostEqual(out["walk.refinements"], 3.5)
        self.assertAlmostEqual(out["walk.grid_mb"], 4096 * 3 * 16 / 1e6)
        self.assertAlmostEqual(out["trace.self_sum_ms"], 5.0)
        self.assertEqual(out["spectral.support_calls"], 0.5)


class Wrappers(unittest.TestCase):
    def test_parents_and_threads(self):
        tracer = Tracer()

        def leaf():
            return 1

        wrapped_leaf = tracer.wrap("b.leaf", leaf)

        def outer():
            wrapped_leaf()
            t = threading.Thread(target=wrapped_leaf)
            t.start()
            t.join(timeout=10)
            self.assertFalse(t.is_alive())

        tracer.wrap("a.outer", outer)()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        (root,) = by_name["a.outer"]
        self.assertIsNone(root.parent)
        self.assertEqual([s.parent for s in by_name["b.leaf"]], [root.sid, root.sid])

    def test_install_restores(self):
        before = qwsed.sedentary.decompose
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(qwsed.sedentary.decompose, before)
            _report(qwsed.build_family(qwsed.parse_family("star:3")), 1, "adjacency")
        finally:
            tracer.uninstall()
        self.assertIs(qwsed.sedentary.decompose, before)
        names = {s.name for s in tracer.spans}
        self.assertIn("spectral.decompose", names)
        self.assertIn("walk.minimize_diagonal", names)


if __name__ == "__main__":
    unittest.main()
