"""Self-test of the benchmark at tiny size.

    python3 -m pytest perfbench/tests -q      (or python3 -m unittest discover perfbench/tests)

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted verdict is counted as failed rather than raised, that a
timed interval is converted to reference speed piece by piece, and that the
benchmark refuses to run without the abpkit sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(name, trace):
    return run.measure(name, seed=3, seconds=0, trace=trace, tiny=True,
                       emit=lambda line: None)


class MetricsEmitted(unittest.TestCase):
    def test_every_workload_emits_its_metrics_with_units(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.BUILDERS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in names:
                with self.subTest(workload=name, trace=trace):
                    result = tiny_run(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed",
                                                   "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))
                    json.dumps(result, allow_nan=False)


class CorruptedVerdict(unittest.TestCase):
    def test_wrong_verdict_counts_as_failed(self):
        ab = run.import_abpkit()
        wl = workloads.build_pit_corpus(ab, 3, "", tiny=True)
        honest = wl.ops[0].run

        def corrupted():
            verdict = honest()
            verdict.is_zero = not verdict.is_zero
            verdict.witness = None if verdict.witness else (0,) * verdict.n
            return verdict
        wl.ops[0].run = corrupted

        def refused():
            raise ab.algebra.GuardExceeded("refused on purpose")
        wl.ops[1].run = refused
        tally = run.Tally(wl.ops)
        tally.run_pass(wl.ops)
        self.assertEqual(tally.attempted, len(wl.ops))
        self.assertEqual(tally.failed, 2)


class ReferenceSpeed(unittest.TestCase):
    def test_probes_inside_an_interval_are_cut_out_and_pieces_scaled(self):
        meter = speed.Speedometer()
        meter.starts = [0.0, 1.0, 3.0]
        meter.seconds = [0.010, 0.020, 0.040]
        busy, converted = meter.lengths(0.5, 2.0)
        # 0.5..1.0 lies between probes of 10 and 20 ms, 1.02..2.0 between
        # probes of 20 and 40 ms; the probe at 1.0 is not busy time
        self.assertAlmostEqual(busy, 0.5 + 0.98)
        self.assertAlmostEqual(
            converted, speed.NOMINAL_S * (0.5 / 0.015 + 0.98 / 0.030))

    def test_an_interval_with_no_probe_near_it_is_refused(self):
        with self.assertRaises(RuntimeError):
            speed.Speedometer().lengths(0.0, 1.0)


class NoSources(unittest.TestCase):
    def test_exits_nonzero_without_abpkit_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            child = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload", "symbolic",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(child.returncode, 0)
        self.assertEqual(child.stdout, "")
        self.assertIn("abpkit sources not found", child.stderr)


if __name__ == "__main__":
    unittest.main()
