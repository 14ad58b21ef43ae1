"""Self-tests of the benchmark's own logic (not of the package).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a source checkout.
"""

import json
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class CheckerTests(unittest.TestCase):
    def test_wrong_answer_and_exception_count_as_failed(self):
        def boom():
            raise RuntimeError("boom")

        units = [
            ("right", lambda: 1, lambda r: r == 1),
            ("wrong", lambda: 2, lambda r: r == 1),
            ("raises", boom, lambda r: True),
        ]
        failures = []
        self.assertEqual(workloads.run_units(units, failures.append), (3, 2))
        self.assertEqual(failures[0], "wrong")
        self.assertIn("RuntimeError: boom", failures[1])

    def test_checks_reject_wrong_reports(self):
        clean = {name: 0 for name in workloads.AXIOM_NAMES}
        ordered = dict(clean, antipode_order=0)
        self.assertTrue(workloads.check_axiom_report({"failures": clean}, False))
        self.assertTrue(workloads.check_axiom_report({"failures": ordered}, True))
        self.assertFalse(workloads.check_axiom_report({"failures": clean}, True))
        self.assertFalse(workloads.check_axiom_report(
            {"failures": dict(clean, coassociativity=1)}, False))

        report = types.SimpleNamespace(unresolved=[], total=576)
        self.assertTrue(workloads.check_confluence_report(report, 576))
        self.assertFalse(workloads.check_confluence_report(report, 575))
        report.unresolved = ["ambiguity"]
        self.assertFalse(workloads.check_confluence_report(report, 576))

        self.assertFalse(workloads.check_no_primitives(["x"]))
        self.assertFalse(workloads.check_verdict(False)(True))
        self.assertTrue(workloads.check_verdict(True)(True))

    def test_gaussian_count(self):
        self.assertEqual(workloads.gaussian_count(9, 3, 2), 788035)
        self.assertEqual(workloads.gaussian_count(9, 4, 2), 3309747)
        # lines in GF(q)^2 and GF(q)^3: (q^m - 1) / (q - 1)
        self.assertEqual(workloads.gaussian_count(2, 1, 3), 4)
        self.assertEqual(workloads.gaussian_count(3, 1, 2), 7)
        self.assertEqual(workloads.gaussian_count(3, 2, 2), 7)


class SeedTests(unittest.TestCase):
    def setUp(self):
        src = HERE.parent / "src"
        if not (src / "freehopf").is_dir():
            self.skipTest("no freehopf sources")
        sys.path.insert(0, str(src))
        import freehopf
        self.fh = freehopf

    def test_seed_permutes_order_but_not_questions(self):
        for name in workloads.WORKLOADS:
            a = [u[0] for u in workloads.setup(self.fh, name, 1)]
            b = [u[0] for u in workloads.setup(self.fh, name, 2)]
            self.assertEqual(len(a), workloads.ANSWERS[name])
            self.assertEqual(sorted(a), sorted(b))
            self.assertEqual(len(set(a)), len(a))
            if name != "scan":
                self.assertNotEqual(a, b, name)


class TracerTests(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        clock = FakeClock()
        t = tracing.Tracer(clock)

        def leaf():
            clock.advance(1.0)

        wleaf = t.wrap("leaf", leaf, tracing.LEAF)

        def middle():
            clock.advance(0.5)
            wleaf()
            clock.advance(0.25)

        wmiddle = t.wrap("middle", middle, tracing.SPAN)

        def outer():
            clock.advance(2.0)
            wleaf()
            wmiddle()
            clock.advance(3.0)

        t.wrap("outer", outer, tracing.SPAN)()
        spans = {s["name"]: s for s in t.dump()["spans"]}
        self.assertEqual((spans["outer"]["start"], spans["outer"]["end"]), (0.0, 7.75))
        self.assertEqual(spans["outer"]["self_s"], 7.75 - 1.0 - 1.75)
        self.assertEqual(spans["middle"]["self_s"], 0.75)
        self.assertIsNone(spans["outer"]["parent"])
        self.assertEqual(spans["middle"]["parent"], 0)
        # the leaf is aggregated per caller, not recorded as a span
        self.assertEqual(t.stats["leaf"]["outer"], [1, 1.0, 1.0])
        self.assertEqual(t.stats["leaf"]["middle"], [1, 1.0, 1.0])
        self.assertEqual(t.calls("leaf"), 2)
        self.assertEqual(t.self_s("outer") + t.self_s("middle") + t.self_s("leaf"), 7.75)
        self.assertEqual(t.root[1], 7.75)

    def test_exception_still_closes_the_frame(self):
        clock = FakeClock()
        t = tracing.Tracer(clock)

        def fails():
            clock.advance(1.0)
            raise ValueError("refused")

        with self.assertRaises(ValueError):
            t.wrap("fails", fails, tracing.SPAN)()
        self.assertEqual(t.self_s("fails"), 1.0)
        self.assertEqual(len(t._stack), 1)

    def test_missing_target_yields_absent_metrics(self):
        class Echelon:
            def __init__(self):
                self.dim = 0

            def feed(self, tag, vec):
                self.dim += 1

        def kernel(field, pairs):
            ech = Echelon()
            for tag, vec in pairs:
                ech.feed(tag, vec)
            return []

        package = types.SimpleNamespace(__name__="fake", Echelon=Echelon, kernel=kernel)
        user = types.SimpleNamespace(kernel_alias=kernel)
        t = tracing.Tracer()
        tracing.install(t, package, [package, user])
        self.assertIn("RuleSet.normal_form_word", t.missing)
        self.assertNotIn("Echelon.feed", t.missing)

        user.kernel_alias(None, [(1, {}), (2, {})])
        metrics = tracing.layer_metrics(t)
        self.assertNotIn("rewrite.nf.calls", metrics)
        self.assertNotIn("rewrite.self_s", metrics)
        self.assertEqual(metrics["linalg.feed.calls"][0], 2)
        self.assertEqual(metrics["linalg.feed.rank_grew_share"][0], 1.0)
        self.assertEqual(t.calls("kernel"), 1)

    def test_changed_result_shape_yields_absent_metrics(self):
        package = types.SimpleNamespace(__name__="fake",
                                        check_confluence=lambda n, dom, levels=None: object())
        t = tracing.Tracer()
        tracing.install(t, package, [package])
        package.check_confluence(2, None)
        metrics = tracing.layer_metrics(t)
        self.assertNotIn("rewrite.confluence.ambiguities", metrics)
        self.assertIn("check_confluence", t.missing)


class ManifestTests(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(workloads.WORKLOADS))
        per_layer = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
        self.assertEqual(per_layer, [tuple(s) for s in tracing.metric_specs()])
        self.assertEqual([m["name"] for m in manifest["end_to_end"]],
                         ["setup_s", "answer_s", "peak_rss_mb"])


if __name__ == "__main__":
    unittest.main()
