"""Self-tests of the benchmark harness (not of the library).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import json
import signal
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dlhecke import heckeops, rootdata, verify, weyl  # noqa: E402
from dlhecke.rootdata import RootSystemSpec  # noqa: E402
from dlhecke.vseries import AnchoredSeries, VPoly  # noqa: E402

A2AFF = RootSystemSpec.parse("A2!")


def small_whittaker(labels):
    return verify.whittaker_normalized(A2AFF, labels, depth=2, margin=1)


class AutomorphismTest(unittest.TestCase):
    def test_counts_match_the_diagram_groups(self):
        for text, count in workloads.AUTOMORPHISM_COUNTS.items():
            auts = workloads.automorphisms(RootSystemSpec.parse(text))
            self.assertEqual(len(auts), count, text)

    def test_rejects_a_non_automorphism(self):
        cartan = rootdata.build_cartan(RootSystemSpec.parse("A4"))
        self.assertEqual(workloads.check_automorphism(cartan, (3, 2, 1, 0)),
                         (3, 2, 1, 0))
        with self.assertRaises(ValueError):
            workloads.check_automorphism(cartan, (1, 0, 2, 3))
        with self.assertRaises(ValueError):
            workloads.check_automorphism(cartan, (0, 0, 2, 3))

    def test_permute_round_trip(self):
        perm = (2, 0, 1)
        self.assertEqual(workloads.permute((5, 6, 7), perm), (6, 7, 5))
        self.assertEqual(workloads.unpermute((6, 7, 5), perm), (5, 6, 7))


class DigestTest(unittest.TestCase):
    def test_relabelled_runs_map_back_to_one_digest(self):
        labels = (0, 0, 1)
        digests = set()
        for perm in workloads.automorphisms(A2AFF):
            out = small_whittaker(workloads.permute(labels, perm))
            digests.add(workloads.whittaker_digest(out, perm))
        self.assertEqual(len(digests), 1)

    def test_digest_ignores_term_order(self):
        series, achieved, stable = small_whittaker((0, 0, 1))
        reversed_terms = dict(reversed(list(series.terms.items())))
        other = AnchoredSeries(series.spec, series.anchor, reversed_terms,
                               depth=series.depth, _trusted=True)
        perm = (0, 1, 2)
        self.assertEqual(
            workloads.whittaker_digest((series, achieved, stable), perm),
            workloads.whittaker_digest((other, achieved, stable), perm))

    def test_cli_digest_ignores_timing_and_seed(self):
        a = workloads.run_cli(["--format", "json", "--seed", "1", "verify",
                               "hecke-relations", "--spec", "A1",
                               "--count", "3"])
        b = workloads.run_cli(["--format", "json", "--seed", "2", "verify",
                               "hecke-relations", "--spec", "A1",
                               "--count", "3"])
        self.assertEqual(workloads.cli_digest(a), workloads.cli_digest(b))


def _case(run_fn):
    return workloads.Case(
        name="A2!/0,0,1/d2", run=run_fn,
        digest=lambda out: workloads.whittaker_digest(out, (0, 1, 2)))


class FailureCountTest(unittest.TestCase):
    def setUp(self):
        self.good = small_whittaker((0, 0, 1))
        self.reference = {"A2!/0,0,1/d2":
                          workloads.whittaker_digest(self.good, (0, 1, 2))}

    def tally_of(self, run_fn):
        tally = run.Tally()
        run.run_pass([_case(run_fn)], self.reference, tally)
        return tally

    def test_correct_output_passes(self):
        tally = self.tally_of(lambda: self.good)
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_one_perturbed_coefficient_is_one_failure(self):
        series, achieved, stable = self.good
        terms = dict(series.terms)
        beta = max(terms)
        terms[beta] = terms[beta] + VPoly.term(1, -7)
        bad = AnchoredSeries(series.spec, series.anchor, terms,
                             depth=series.depth, _trusted=True)
        tally = self.tally_of(lambda: (bad, achieved, stable))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_an_exception_is_one_failure(self):
        def boom():
            raise heckeops.HeckeError("injected")
        tally = self.tally_of(boom)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("injected", tally.notes[0])


class TracerTest(unittest.TestCase):
    def traced_counts(self):
        with tracing.Tracer() as tracer:
            small_whittaker((0, 0, 1))
            verify.verify_finite_cs(RootSystemSpec.parse("A2"), (1, 0))
        return {k: v for k, v in tracer.metrics().items()
                if not k.endswith("_s") and not k.endswith(".s")}

    def test_uninstall_restores_every_binding(self):
        modules = tracing.MODULES + (AnchoredSeries, VPoly, weyl.WeylElement,
                                     RootSystemSpec)
        before = [dict(vars(m)) for m in modules]
        self.traced_counts()
        after = [dict(vars(m)) for m in modules]
        self.assertEqual(before, after)

    def test_counts_repeat_and_see_nested_bindings(self):
        first = self.traced_counts()
        self.assertEqual(first, self.traced_counts())
        self.assertGreater(first["heckeops.apply_T.calls"], 0)
        self.assertGreater(first["weyl.reflect.calls"], 0)
        # verify binds mul_maps by name; the product in verify_finite_cs
        # goes through AnchoredSeries.__mul__ and the vseries binding
        self.assertGreater(first["vseries.mul_maps.calls"], 0)
        self.assertGreater(first["vseries.vpoly.adds"], 0)

    def test_self_time_excludes_nested_spans(self):
        with tracing.Tracer() as tracer:
            small_whittaker((0, 0, 1))
        total = tracer.total_s["verify.whittaker_normalized"]
        self.assertLessEqual(sum(tracer.self_s.values()), total * 1.001)
        self.assertLess(tracer.self_s["verify.whittaker_normalized"], total)

    def test_kept_pairs(self):
        t1 = {(0, 0): 1, (1, 0): 1}
        t2 = {(0, 0): 1, (0, 2): 1}
        self.assertEqual(tracing._kept_pairs(t1, t2, None), 4)
        self.assertEqual(tracing._kept_pairs(t1, t2, 2), 3)
        self.assertEqual(tracing._kept_pairs(t1, t2, 1), 2)


class ClockTest(unittest.TestCase):
    def busy(self, seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def test_kernel_is_fixed(self):
        # The kernel defines the unit of every reported time; a change to
        # it or its inputs shows here.
        self.assertEqual(calibrate.kernel(), (156, 700))

    def test_kernel_is_interleaved_and_taken_out(self):
        clock = calibrate.Clock()
        clock.start()
        self.busy(0.2)
        wall, scaled = clock.stop()
        self.assertGreaterEqual(len(clock._during), 5)
        self.assertGreater(wall, 0.2)
        self.assertGreater(scaled, 0)

    def test_short_call_and_handler_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        clock = calibrate.Clock()
        clock.start()
        wall, scaled = clock.stop()
        self.assertEqual(clock._during, [])
        self.assertGreater(scaled, 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_setup_child_reports_its_clock(self):
        raw, scaled = run.measure_setup(["A1"])
        self.assertEqual(len(raw), run.SETUP_REPEATS)
        self.assertTrue(all(x > 0 for x in raw + scaled))


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         dict(tracing.METRICS, trace_overhead_frac="ratio"))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_reference_covers_every_case(self):
        reference = json.loads((HERE / "reference.json").read_text())
        for workload in workloads.WORKLOADS:
            names = {c.name for c in workloads.build_cases(workload, 0)}
            self.assertEqual(names, set(reference[workload]))

    def test_tail_percentile(self):
        self.assertIsNone(run.tail_percentile(list(range(19))))
        self.assertEqual(run.tail_percentile(list(range(1, 21))), (50, 10))
        self.assertEqual(run.tail_percentile(list(range(1, 41))), (75, 30))


if __name__ == "__main__":
    unittest.main()
