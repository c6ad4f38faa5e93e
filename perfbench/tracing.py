"""Span tracing of abpkit from outside: wrappers installed on the public entry
points of each module, at the name their callers look up.

A span records its name, start, end, parent span and operation id.  Spans
are kept in memory (the first ``MAX_SPANS`` of them; the aggregates count
every span) and written out when the run ends.  A layer's self time is its
span's duration minus the durations of its child spans; in this
single-threaded toolkit child spans never overlap, so their sum is the time
they cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

MAX_SPANS = 20_000

# Module-level functions: (defining module, attribute, span name).  Each is
# patched in every abpkit module that binds the same object, because callers
# import them by name (``pit`` imports the ``sequences`` functions, ``cli``
# imports almost everything).  ``read_k_pit`` recurses through the module
# global, so patching ``abpkit.pit.read_k_pit`` also catches recursive calls.
FUNCTIONS = (
    ("abp", "validate", "abp.validate"),
    ("abp", "load", "abp.load"),
    ("sequences", "per_read_monotone_subset", "sequences.per_read_monotone"),
    ("sequences", "regularly_interleaving_subset", "sequences.regular_interleave"),
    ("evaldim", "pd_rank", "evaldim.pd_rank"),
    ("evaldim", "eval_dim", "evaldim.eval_dim"),
    ("evaldim", "roabp_synthesize", "evaldim.roabp_synthesize"),
    ("evaldim", "k_pass_to_roabp", "evaldim.k_pass_to_roabp"),
    ("pit", "read_k_pit", "pit.read_k_pit"),
    ("pit", "iteration_bound_check", "pit.iteration_bound_check"),
    ("hardpoly", "experiment_qn_evaldim", "hardpoly.experiment_qn_evaldim"),
    ("hardpoly", "experiment_pn_evaldim", "hardpoly.experiment_pn_evaldim"),
    ("hardpoly", "eliminate_summand", "hardpoly.eliminate_summand"),
    ("hardpoly", "gen_pn", "hardpoly.gen"),
    ("hardpoly", "gen_qn", "hardpoly.gen"),
    ("corpus", "random_read_k_abp", "corpus.generate"),
    ("corpus", "random_k_pass_abp", "corpus.generate"),
    ("corpus", "random_roabp", "corpus.generate"),
    ("corpus", "random_multilinear_poly", "corpus.generate"),
    ("cli", "main", "cli.main"),
)

# Methods, patched on the class: (module, class, attribute, span name).
METHODS = (
    ("algebra", "SparsePoly", "__mul__", "algebra.poly_mul"),
    ("algebra", "SparsePoly", "__add__", "algebra.poly_add"),
    ("algebra", "SparsePoly", "substitute", "algebra.poly_substitute"),
    ("algebra", "LinearSolver", "try_add", "algebra.solver_try_add"),
    ("algebra", "UniMatrix", "eval_at", "algebra.unimatrix_eval_at"),
    ("abp", "ObliviousAbp", "evaluate", "abp.evaluate"),
    ("abp", "ObliviousAbp", "restrict", "abp.restrict"),
    ("abp", "ObliviousAbp", "expand", "abp.expand"),
)

# Per-layer metrics in output order: (name, unit).
CALLS_AND_SELF = (
    "algebra.poly_mul", "algebra.poly_add", "algebra.poly_substitute",
    "algebra.solver_try_add", "algebra.unimatrix_eval_at", "abp.evaluate",
    "abp.restrict", "abp.expand", "abp.validate",
    "sequences.per_read_monotone", "sequences.regular_interleave",
    "evaldim.pd_rank", "evaldim.eval_dim", "evaldim.roabp_synthesize",
    "evaldim.k_pass_to_roabp", "pit.read_k_pit", "pit.iteration_bound_check",
    "cli.main",
)
SELF_ONLY = (
    "abp.load", "hardpoly.experiment_qn_evaldim", "hardpoly.experiment_pn_evaldim",
    "hardpoly.eliminate_summand", "hardpoly.gen", "corpus.generate",
)
COUNTERS = (
    ("algebra.poly_mul.term_pairs", "count"),
    ("algebra.solver_try_add.accept_ratio", "ratio"),
    ("abp.expand.terms_ratio", "ratio"),
    ("pit.read_k_pit.depth_max", "count"),
    ("pit.rounds", "count"),
    ("pit.candidates_tried", "count"),
    ("pit.round_accept_ratio", "ratio"),
    ("pit.grid_points", "count"),
    ("pit.fastpath_expands", "count"),
    ("pit.probe_evals", "count"),
)


def layer_metric_units() -> dict:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


class Tracer:
    """Collects spans and per-span aggregates while ``active``."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording one span per call.  ``before(args)`` runs ahead
        of the clock; ``after(result, args)`` runs after it stops."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(name, start, end, frame[1], span_id)
            if after is not None:
                after(result, args)
            return result
        return traced

    def _close(self, name, start, end, child_s, span_id):
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
            if parent[0] == "pit.read_k_pit":
                if name == "abp.expand":
                    self.counts["pit.fastpath_expands"] += 1
                elif name == "abp.evaluate":
                    self.counts["pit.probe_evals"] += 1
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent[2] if parent else None, name,
                               start, end, self.op_id))
        else:
            self.dropped += 1

    # -- installation ----------------------------------------------------------

    def install(self, ab) -> None:
        """Patch every entry point of the abpkit namespace ``ab``."""
        hooks = self._hooks()
        modules = list(vars(ab).values())
        for home, attr, name in FUNCTIONS:
            original = getattr(getattr(ab, home), attr)
            before, after = hooks.get(name, (None, None))
            wrapper = self.wrap(name, original, before, after)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapper)
        for home, cls_name, attr, name in METHODS:
            cls = getattr(getattr(ab, home), cls_name)
            before, after = hooks.get(name, (None, None))
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr], before, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _hooks(self) -> dict:
        counts = self.counts

        def mul_before(args):
            counts["algebra.poly_mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def try_add_after(result, args):
            counts["solver_accepted"] += bool(result)

        def expand_before(args):
            counts["expand_estimated"] += args[0].estimated_terms()

        def expand_after(result, args):
            counts["expand_actual"] += len(result.terms)

        def pit_before(args):
            depth = 1 + sum(1 for f in self._stack if f[0] == "pit.read_k_pit")
            if depth > counts["pit.read_k_pit.depth_max"]:
                counts["pit.read_k_pit.depth_max"] = depth

        def pit_after(verdict, args):
            for rec in verdict.iterations:
                counts["pit.rounds"] += 1
                counts["pit.candidates_tried"] += rec.points_tried
                counts["pit.grid_points"] += rec.h_size

        return {
            "algebra.poly_mul": (mul_before, None),
            "algebra.solver_try_add": (None, try_add_after),
            "abp.expand": (expand_before, expand_after),
            "pit.read_k_pit": (pit_before, pit_after),
        }

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counts
        for name, _ in COUNTERS:
            out[name] = c[name]
        out["algebra.solver_try_add.accept_ratio"] = _ratio(
            c["solver_accepted"], self.calls["algebra.solver_try_add"])
        out["abp.expand.terms_ratio"] = _ratio(c["expand_actual"], c["expand_estimated"])
        out["pit.round_accept_ratio"] = _ratio(c["pit.rounds"], c["pit.candidates_tried"])
        return out

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines after one header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans_kept": len(self.spans),
                                 "spans_dropped": self.dropped}) + "\n")
            for span_id, parent, name, start, end, op_id in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op_id}) + "\n")


def _ratio(num, den) -> float:
    """A ratio with nothing in its base reads 0."""
    return num / den if den else 0.0
