"""abpkit benchmark: one closed-loop client in one process and one thread.

    python3 perfbench/run.py --workload pit-corpus --seed 0 --seconds 30 --trace 0

Run from the repository root; abpkit is imported from ``src/`` next to this
directory.  ``--workload all`` runs every workload, each in its own process.

A run sets up ``SETUP_REPS`` times (fresh import, instance generation,
fixture writing, warm-up) and reports the median as ``setup_s``.  It then
runs whole passes over the workload's operations, at least ``MIN_PASSES``
and until ``--seconds`` of pass time have elapsed; after each pass, with the
clock stopped, every output is checked.  Failed checks, refusals and
exceptions are counted, never raised.

Every timing is converted to reference speed (``speed.py``): a fixed
abpkit-free kernel is timed every 0.25 s, inside operations too, and each
interval, the probes inside it left out, is scaled by the kernel's nominal
time over its time around it, because the host's speed drifts by tens of
percent over seconds to minutes.  Each position of a pass (a slot) takes
the median converted time of its operation over the run, and the timing
metrics are taken over the slot times.  The wall-clock figures are printed
beside them.

With ``--trace 1`` the run also installs span wrappers, repeats one traced
set-up and one traced pass, and prints the per-layer metrics and the
tracing overhead instead of the end-to-end metrics.  The last line of
output is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("algebra", "abp", "sequences", "evaldim", "pit", "hardpoly",
           "corpus", "cli")
SETUP_REPS = 9
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.throughput_untraced_ops_s": "ops/s",
    "trace.throughput_traced_ops_s": "ops/s",
    "trace.overhead_ops_s": "ops/s",
}


def import_abpkit() -> SimpleNamespace:
    """Import abpkit afresh from ``src/``, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "abpkit" or m.startswith("abpkit.")]:
        del sys.modules[name]
    package = importlib.import_module("abpkit")
    if Path(package.__file__).resolve().parent != SRC / "abpkit":
        raise RuntimeError(f"abpkit imported from {package.__file__}, not {SRC}")
    ns = {m: importlib.import_module(f"abpkit.{m}") for m in MODULES}
    return SimpleNamespace(package=package, **ns)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "abpkit").glob("*.py")))


def set_up(name, seed, workdir, tiny, speedometer):
    """One set-up between two reference probes, from a collected heap;
    returns its interval."""
    gc.collect()
    speedometer.probe()
    clock = speedometer.clock
    start = clock()
    ab = import_abpkit()
    wl = workloads.BUILDERS[name](ab, seed, workdir, tiny)
    for op in wl.warmup:
        op.run()
    interval = (start, clock())
    speedometer.probe()
    return interval, ab, wl


class Tally:
    """Outcomes and timings of the operations of a run.  Each position of a
    pass is a slot; a slot's time is the median over the run of its
    operation's timings at reference speed, so an operation that fills
    several slots pools their timings."""

    def __init__(self, ops, speedometer=None):
        first = {}
        self.slot_op = [first.setdefault(id(op), i) for i, op in enumerate(ops)]
        self.speed = speedometer or speed.Speedometer()
        self.intervals = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.timed_s = 0.0
        self.zero_verdicts = 0
        self.by_kind = {}

    def run_pass(self, ops, tracer=None):
        """One timed pass over ``ops``, then the checks of its outputs."""
        outputs = []
        clock = self.speed.clock
        if tracer is not None:
            tracer.active = True
        pass_start = clock()
        for index, op in enumerate(ops):
            self.speed.maybe_probe()
            if tracer is not None:
                tracer.op_id = index
            start = clock()
            try:
                out, raised = op.run(), False
            except Exception as exc:  # refusals and errors count as failed
                out, raised = exc, True
            outputs.append((out, raised, start, clock()))
        if tracer is not None:
            tracer.active = False
        self.speed.probe()
        self.timed_s += clock() - pass_start
        self.passes += 1
        for index, (op, (out, raised, start, end)) in enumerate(zip(ops, outputs)):
            self.attempted += 1
            self.intervals[self.slot_op[index]].append((start, end))
            self.by_kind.setdefault(op.label.split("#")[0].split(" ")[0], []).append((start, end))
            self.zero_verdicts += hasattr(out, "witness") and out.is_zero is True
            if raised or not _checked(op, out):
                self.failed += 1

    def slot_times(self, wall=False) -> list:
        """Each slot's median timing, at reference speed, or the busy wall
        time if ``wall``."""
        median = {key: statistics.median(self.speed.lengths(*iv)[0 if wall else 1]
                                         for iv in self.intervals[key])
                  for key in set(self.slot_op)}
        return [median[key] for key in self.slot_op]

    def throughput(self, wall=False) -> float:
        """Correct operations per second of summed slot time."""
        good = (self.attempted - self.failed) / self.attempted
        return good * len(self.slot_op) / sum(self.slot_times(wall))


def _checked(op, out) -> bool:
    try:
        return op.check(out) is True
    except Exception:  # a check that cannot complete is a failed operation
        return False


def timed_phase(wl, seconds, speedometer) -> Tally:
    tally = Tally(wl.ops, speedometer)
    while tally.passes < MIN_PASSES or tally.timed_s < seconds:
        tally.run_pass(wl.ops)
    return tally


def end_to_end(tally, setup_s) -> dict:
    """The end-to-end metrics; the tail is the slot time with exactly ten
    slots beyond it, so its percentile is fixed by the pass length."""
    slots = sorted(tally.slot_times())
    return {
        "setup_s": setup_s,
        "throughput_ops_s": tally.throughput(),
        "latency_p50_ms": statistics.median_high(slots) * 1e3,
        "latency_tail_ms": slots[-11] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(name, seed, workdir, tiny, ab, tally, emit):
    """One traced set-up and one traced pass, after the untraced timed phase
    in ``tally``; returns the per-layer metrics and their units and writes
    the spans out."""
    untraced = tally.throughput()
    tracer = tracing.Tracer()
    tracer.install(ab)
    try:
        tracer.active = True
        wl = workloads.BUILDERS[name](ab, seed, workdir, tiny)
        for op in wl.warmup:
            op.run()
        tracer.active = False
        traced = Tally(wl.ops, tally.speed)
        traced.run_pass(wl.ops, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    spans_path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(spans_path, {"workload": name, "seed": seed,
                              "src_lines": src_line_count()})
    emit(f"spans: {len(tracer.spans)} kept, {tracer.dropped} beyond the first "
         f"{tracing.MAX_SPANS}, in {spans_path}")
    metrics = tracer.metrics()
    traced_rate = traced.throughput()
    metrics["trace.throughput_untraced_ops_s"] = untraced
    metrics["trace.throughput_traced_ops_s"] = traced_rate
    metrics["trace.overhead_ops_s"] = untraced - traced_rate
    return metrics, {**tracing.layer_metric_units(), **TRACE_UNITS}


def measure(name, seed, seconds, trace, tiny=False, emit=print) -> dict:
    """Run one workload; print its report through ``emit`` and return the
    result object (the last line of output)."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        speedometer = speed.Speedometer()
        setups = []
        with speedometer.ticking():
            for _ in range(SETUP_REPS):
                interval, ab, wl = set_up(name, seed, workdir, tiny, speedometer)
                setups.append(interval)
            tally = timed_phase(wl, seconds, speedometer)
            speedometer.probe()
        setup_s = statistics.median(speedometer.normalized(*iv) for iv in setups)
        slots = len(wl.ops)
        emit(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
        emit(f"abpkit src lines: {src_line_count()}")
        emit(f"operations: {tally.attempted} in {tally.passes} passes of {slots}, "
             f"{tally.timed_s:.2f} s timed")
        emit(f"reference kernel: median {statistics.median(speedometer.seconds) * 1e3:.2f} ms "
             f"over {len(speedometer.seconds)} probes ({speedometer.probe_s:.2f} s), "
             f"nominal {speed.NOMINAL_S * 1e3:g} ms")
        wall_slots = sorted(tally.slot_times(wall=True))
        wall_setup = statistics.median(speedometer.lengths(*iv)[0] for iv in setups)
        emit(f"wall clock: setup {wall_setup:.4g} s, "
             f"throughput {tally.throughput(wall=True):.6g} ops/s, "
             f"p50 {statistics.median_high(wall_slots) * 1e3:.6g} ms, "
             f"tail {wall_slots[-11] * 1e3:.6g} ms")
        if trace:
            metrics, units = traced_metrics(name, seed, workdir, tiny, ab, tally, emit)
            notes = {}
        else:
            metrics, units = end_to_end(tally, setup_s), END_TO_END_UNITS
            notes = {"setup_s": f"median of {SETUP_REPS} set-ups, reference speed",
                     "latency_p50_ms": "reference speed",
                     "throughput_ops_s": "reference speed",
                     "latency_tail_ms": f"p{100 * (slots - 10) / slots:.2f} of "
                                        f"{slots} slot times, 10 beyond, "
                                        f"reference speed"}
        emit(f"failed_ratio {tally.failed / tally.attempted:.4g} ratio "
             f"({tally.failed} of {tally.attempted})")
        for key, value in metrics.items():
            note = f"  ({notes[key]})" if key in notes else ""
            shown = value if isinstance(value, int) else f"{value:.6g}"
            emit(f"{key} {shown} {units[key]}{note}")
        if tally.zero_verdicts:
            emit(f"zero verdicts: {tally.zero_verdicts} of {tally.attempted} "
                 f"({100 * tally.zero_verdicts / tally.attempted:.1f}%)")
        if 1 < len(tally.by_kind) <= 8:
            for kind, intervals in tally.by_kind.items():
                wall, ref = zip(*(speedometer.lengths(*iv) for iv in intervals))
                emit(f"  {kind}: {len(ref)} ops, median {statistics.median(ref) * 1e3:.3f} ms "
                     f"(wall {statistics.median(wall) * 1e3:.3f} ms), "
                     f"total {sum(ref):.2f} s (wall {sum(wall):.2f} s)")
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.BUILDERS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {child.returncode}")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
        print()
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "abpkit" / "__init__.py").is_file():
        print(f"error: abpkit sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
