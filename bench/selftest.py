"""Self-tests of the benchmark's accounting, on tiny inputs.

Run from the repository root:

    python3 bench/selftest.py
"""
import contextlib
import dataclasses
import io
import json
import unittest

import run
from tracer import Tracer

SEED = 1


class Accounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rounds = {w: run.set_up(w, SEED, tiny=True) for w in run.WORKLOADS}

    def test_tiny_runs_have_no_errors(self):
        for workload, rounds in self.rounds.items():
            with self.subTest(workload=workload):
                plain, _, _ = run.measure(rounds, 0, min_ops=1, min_repeats=1)
                self.assertTrue(plain)
                self.assertEqual([o.case.kind for o in plain if not o.ok], [])

    def test_wrong_expected_verdict_counts_as_error(self):
        case = self.rounds["blocks"][0][0]
        self.assertTrue(run.run_case(case).ok)
        wrong = dataclasses.replace(case, expected=("fail",))
        outcome = run.run_case(wrong)
        self.assertFalse(outcome.ok)
        self.assertEqual(outcome.verdict, ("pass",))

    def test_raising_operation_counts_as_error(self):
        def boom():
            raise ZeroDivisionError("deliberate")
        case = dataclasses.replace(self.rounds["blocks"][0][0], fresh=lambda: boom)
        with contextlib.redirect_stderr(io.StringIO()):   # the expected traceback
            outcome = run.run_case(case)
        self.assertFalse(outcome.ok)
        self.assertIsNone(outcome.verdict)

    def test_traced_verdicts_match_untraced(self):
        for workload, rounds in self.rounds.items():
            with self.subTest(workload=workload):
                tracer = Tracer()
                plain, traced, _ = run.measure(rounds, 0, tracer, min_ops=1, min_repeats=1)
                self.assertEqual([o.verdict for o in traced], [o.verdict for o in plain])
                self.assertTrue(all(o.ok for o in traced))
                self.assertEqual(len(tracer.ops), len(traced))

    def test_cache_hits_come_only_from_within_an_operation(self):
        case = self.rounds["chain"][0][0]
        tracer = Tracer()
        run.run_traced(case, tracer)
        first = (tracer.cached_calls, tracer.cached_hits)
        self.assertGreater(first[1], 0)   # ae_deterministic repeats a star check
        run.run_traced(case, tracer)
        self.assertEqual((tracer.cached_calls, tracer.cached_hits),
                         (2 * first[0], 2 * first[1]))

    def test_every_declared_function_is_wrapped(self):
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        declared = {m["name"].rsplit(".", 1)[0]
                    for m in json.loads(run.SPEC.read_text())["per_layer"]
                    if m["name"].endswith(".self_s") and m["name"].count(".") == 2}
        self.assertEqual(sorted(declared - set(tracer.stats)), [])


if __name__ == "__main__":
    unittest.main()
