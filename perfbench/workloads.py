"""The four benchmark workloads and the correctness check of every operation.

A workload is built from a freshly imported ``abpkit`` namespace and a seed.
It is a list of operations; each operation is a zero-argument call into
abpkit and a check of its output.  Every call goes through a module or class
attribute at call time, so that the tracer can patch it.

Inputs are the instances of the acceptance criteria (criterion 1's read-k
corpus, criterion 2's two-pass programs, criterion 3's multilinear
polynomials, criterion 9's sums of read-once programs, the hard families) in
a seeded disguise, so each seed gives other numbers at the same cost
profile.  Drawing fresh corpora from criterion 1's distribution instead
moves a pass between 1.4 s and 4.6 s, because a handful of zero programs
carry most of the time.  Seed 0 applies no disguise and reproduces
criterion 1's corpus exactly.

The symbolic tasks get the full disguise: variables renamed and scaled by
nonzero constants, and a diagonal change of basis between layers.  It keeps
every expansion's support, so the symbolic work stays put.  The identity
tests get the change of basis only, which multiplies the polynomial by a
nonzero constant and leaves the search untouched; renaming or scaling
variables reorders the grid or moves its roots, and with them the zero
candidates a nonzero program meets before its witness (up to 25% more
multiplication work between seeds).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0

PRIME = 101
CRIT1_PER_K = 200
# pit-corpus runs the first 100 programs of each k: a shorter pass is timed
# more often in a run, which is what keeps its slot times steady.
PIT_CORPUS_PER_K = 100


@dataclass
class Op:
    """One operation: ``run`` calls abpkit, ``check`` returns whether the
    output is correct (it may also raise, which counts as incorrect)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# A pass needs this many operations for a tail percentile with ten samples
# beyond it.
MIN_PASS_OPS = 11


@dataclass
class Workload:
    """The operations of one pass and the warm-up run during set-up."""

    name: str
    ops: list
    warmup: list

    def __post_init__(self) -> None:
        if len(self.ops) < MIN_PASS_OPS:
            raise ValueError(f"a pass needs at least {MIN_PASS_OPS} operations")


def _cached(fn):
    """Memoize a zero-argument oracle, so a check recomputed on a later pass
    costs nothing."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


# -- seeded disguise --------------------------------------------------------


class Disguise:
    """Variable renaming ``perm``, variable scaling ``scale`` and an overall
    constant, drawn from one Random.  ``gauge_only`` keeps variables and
    their scale, so the computed polynomial changes only by a constant."""

    def __init__(self, rng: random.Random, num_vars: int, p: int,
                 gauge_only: bool = False):
        self.rng = rng
        self.p = p
        self.perm = list(range(num_vars))
        self.scale = [1] * num_vars
        if not gauge_only:
            rng.shuffle(self.perm)
            self.scale = [rng.randrange(1, p) for _ in range(num_vars)]

    def var(self, v):
        return None if v is None else self.perm[v]

    def program(self, ab, program):
        """Same shape, read order (renamed) and expansion support; the
        polynomial is c * f(scaled, renamed variables)."""
        p = self.p
        rng = self.rng
        layers = []
        g_in = [1]
        for layer in program.layers:
            g_out = [rng.randrange(1, p) for _ in range(layer.width_out)]
            inv_in = [pow(g, p - 2, p) for g in g_in]
            a = 1 if layer.var is None else self.scale[layer.var]
            rows = tuple(
                tuple(tuple(c * pow(a, e, p) * inv_in[r] * g_out[col] % p
                            for e, c in enumerate(entry))
                      for col, entry in enumerate(row))
                for r, row in enumerate(layer.entries))
            layers.append(ab.algebra.UniMatrix(layer.field, self.var(layer.var),
                                               rows, layer.padding))
            g_in = g_out
        return ab.abp.ObliviousAbp(program.field, program.num_vars, tuple(layers))

    def poly(self, ab, f):
        p = self.p
        c = self.rng.randrange(1, p)
        terms = {}
        for exps, coeff in f.terms.items():
            new = [0] * f.num_vars
            value = coeff * c
            for v, e in enumerate(exps):
                new[self.perm[v]] = e
                value = value * pow(self.scale[v], e, p) % p
            terms[tuple(new)] = value
        return ab.algebra.SparsePoly(f.field, f.num_vars, terms)

    def order(self, order):
        return tuple(self.perm[v] for v in order)


def _disguise_rng(seed: int, stream: int) -> random.Random:
    return random.Random(f"perfbench:{seed}:{stream}")


# -- instance generators (the acceptance criteria's distributions) ----------


def _crit1_programs(ab, field, count_per_k: int):
    """Criterion 1's corpus in its order: Random(1000 + k), k = 1, 2, 3."""
    out = []
    for k in (1, 2, 3):
        rng = random.Random(1000 + k)
        for i in range(count_per_k):
            n = rng.randint(1, 8)
            w = rng.randint(1, 3)
            roll = rng.random()
            zero_kind = "cancel" if roll < 0.12 else (
                "zero_layer" if roll < 0.22 else None)
            program = ab.corpus.random_read_k_abp(
                rng, field, n, k, w, max_entry_degree=2, term_budget=20000,
                zero_kind=zero_kind)
            out.append((k, i, program))
    return out


def _maybe_disguise(ab, seed, stream, program, gauge_only=False):
    if seed == DEFAULT_SEED:
        return program
    d = Disguise(_disguise_rng(seed, stream), program.num_vars,
                 program.field.p, gauge_only)
    return d.program(ab, program)


# -- pit-corpus ---------------------------------------------------------------


def _pit_op(ab, label, program, pit_seed, oracle_zero):
    def run():
        return ab.pit.read_k_pit(program, generator="grid", seed=pit_seed)

    def check(verdict):
        if verdict.is_zero:
            return oracle_zero()
        return program.evaluate(list(verdict.witness)) != 0
    return Op(label, run, check)


def build_pit_corpus(ab, seed: int, workdir: str, tiny: bool = False) -> Workload:
    field = ab.algebra.PrimeField(PRIME)
    per_k = 4 if tiny else PIT_CORPUS_PER_K
    ops = []
    for idx, (k, i, base) in enumerate(_crit1_programs(ab, field, per_k)):
        program = _maybe_disguise(ab, seed, idx, base, gauge_only=True)
        oracle = _cached(lambda program=program: program.expand().is_zero)
        ops.append(_pit_op(ab, f"k{k}#{i}", program, i, oracle))
    return Workload("pit-corpus", ops, ops[:20])


# -- pit-hard -------------------------------------------------------------------


HARD_FAMILIES = (("pn", 3), ("qn", 3), ("qn", 4), ("pn", 4))
# Verdicts per family in one round.  P_4 takes half a round, so a run holds
# only two rounds; ten Q_4 verdicts give the round the eleven operations a
# tail percentile needs and put both the median and the tail on Q_4.
HARD_REPEATS = {("pn", 3): 1, ("qn", 3): 1, ("qn", 4): 10, ("pn", 4): 1}


def build_pit_hard(ab, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """The ``pit`` CLI verb on program files for P_3, Q_3, Q_4 and P_4."""
    field = ab.algebra.PrimeField(PRIME)
    families = HARD_FAMILIES[:2] if tiny else HARD_FAMILIES
    repeats = 6 if tiny else 1
    ops = []
    for idx, (family, n) in enumerate(families):
        gen = ab.hardpoly.gen_pn if family == "pn" else ab.hardpoly.gen_qn
        program = _maybe_disguise(ab, seed, idx, gen(n, field, with_poly=False).realization,
                                  gauge_only=True)
        path = os.path.join(workdir, f"{family}_{n}.json")
        ab.abp.save(program, path)
        oracle_zero = _cached(
            lambda gen=gen, n=n: gen(n, field, with_poly=True).polynomial.is_zero)
        op = _cli_pit_op(ab, f"{family.upper()}_{n}", path, seed, program, oracle_zero)
        ops += [op] * HARD_REPEATS[family, n]
    return Workload("pit-hard", ops * repeats, ops[:2])


def _cli_pit_op(ab, label, path, seed, program, oracle_zero):
    argv = ["pit", path, "--seed", str(seed)]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ab.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code == 0:
            return text.strip() == "zero polynomial" and oracle_zero()
        prefix = "nonzero; witness: "
        if code != 1 or not text.startswith(prefix):
            return False
        witness = [int(x) for x in text[len(prefix):].split()]
        return program.evaluate(witness) != 0
    return Op(label, run, check)


# -- symbolic -------------------------------------------------------------------


def _expand_op(label, program, rng):
    points = [[rng.randrange(PRIME) for _ in range(program.num_vars)]
              for _ in range(2)]

    def run():
        return program.expand()

    def check(poly):
        return all(poly.evaluate(pt) == program.evaluate(pt) for pt in points)
    return Op(label, run, check)


def _k_pass_op(ab, label, program, width):
    want = _cached(program.expand)

    def run():
        return ab.evaldim.k_pass_to_roabp(program)

    def check(roabp):
        return roabp.width <= width ** 4 and roabp.abp.expand() == want()
    return Op(label, run, check)


def _synth_op(ab, label, f, order):
    profile = _cached(lambda: ab.evaldim.roabp_width_profile(f, order))

    def run():
        return ab.evaldim.roabp_synthesize(f, order)

    def check(roabp):
        return roabp.width_profile == profile()
    return Op(label, run, check)


def _qn_op(ab, label, n, row_seed):
    def run():
        return ab.hardpoly.experiment_qn_evaldim(n, pairs=1, trials=3, seed=row_seed)

    def check(report):
        return len(report.rows) == 1 and report.rows[0].ok
    return Op(label, run, check)


def _pn_op(ab, label, n, subset, field):
    def run():
        return ab.hardpoly.experiment_pn_evaldim(n, field=field, subsets=[subset])

    def check(report):
        return len(report.rows) == 1 and report.rows[0].ok
    return Op(label, run, check)


def _eliminate_op(ab, label, parts, t):
    f1 = _cached(parts[0].abp.expand)

    def run():
        return ab.hardpoly.eliminate_summand(parts, t)

    def check(result):
        if not any(result.alpha):
            return False
        combo = ab.algebra.SparsePoly.zero(f1().field, f1().num_vars)
        for a, alpha in zip(result.assignments, result.alpha):
            combo = combo + f1().substitute(dict(zip(result.subset, a))).scale(alpha)
        return combo.is_zero
    return Op(label, run, check)


# Operations per task kind in one symbolic pass: half of criteria 2, 3 and
# 9, criterion 1's corpus at a stride of 20, 25 rows of each experiment and
# all 81 (p, r) rows of criterion 10.
SYMBOLIC_MIX = {"expand": 30, "k_pass": 50, "synth": 25, "qn": 25, "pn": 25,
                "eliminate": 25, "bound": 81}
EXPAND_STRIDE = 20
BOUND_SAMPLE = 48


def build_symbolic(ab, seed: int, workdir: str, tiny: bool = False) -> Workload:
    field = ab.algebra.PrimeField(PRIME)
    mix = {kind: 2 for kind in SYMBOLIC_MIX} if tiny else SYMBOLIC_MIX
    rng = _disguise_rng(seed, "symbolic")
    kinds = {}

    # expand: criterion 1's corpus at a stride, so every k and every size
    # class is present and the oracle's heavy tail shows
    crit1 = _crit1_programs(ab, field, CRIT1_PER_K)[::EXPAND_STRIDE]
    kinds["expand"] = [
        _expand_op(f"expand k{k}#{i}",
                   _maybe_disguise(ab, seed, 10_000 + j, program), rng)
        for j, (k, i, program) in enumerate(crit1[:mix["expand"]])]

    # k_pass_to_roabp: criterion 2's two-pass programs
    crng = random.Random(2000)
    kinds["k_pass"] = []
    for j in range(mix["k_pass"]):
        n = crng.randint(2, 6)
        w = crng.randint(1, 3)
        program = ab.corpus.random_k_pass_abp(crng, field, n, 2, w, entry_degree=1)
        program = _maybe_disguise(ab, seed, 20_000 + j, program)
        kinds["k_pass"].append(_k_pass_op(ab, f"k_pass#{j}", program, w))

    # roabp_synthesize: criterion 3's multilinear polynomials
    crng = random.Random(3000)
    kinds["synth"] = []
    for j in range(mix["synth"]):
        n = crng.randint(1, 5)
        f = ab.corpus.random_multilinear_poly(crng, field, n)
        order = list(range(n))
        crng.shuffle(order)
        if seed != DEFAULT_SEED:
            d = Disguise(_disguise_rng(seed, 30_000 + j), n, PRIME)
            f, order = d.poly(ab, f), d.order(order)
        kinds["synth"].append(_synth_op(ab, f"synth#{j}", f, tuple(order)))

    # P_n / Q_n experiment rows: criterion 8's Q_3, Q_4 splits and
    # criterion 7's P_3 subsets, one row per operation
    kinds["qn"] = [_qn_op(ab, f"qn{3 + j % 2}#{j}", 3 + j % 2, rng.getrandbits(32))
                   for j in range(mix["qn"])]
    kinds["pn"] = [_pn_op(ab, f"pn3#{j}", 3,
                          tuple(sorted(rng.sample(range(9), 1 + j % 4))), field)
                   for j in range(mix["pn"])]

    # eliminate_summand: criterion 9's sums of two read-once programs
    crng = random.Random(9000)
    kinds["eliminate"] = []
    for j in range(mix["eliminate"]):
        n = crng.randint(3, 6)
        w = crng.randint(1, 3)
        t = crng.randint(1, 2)
        parts = [ab.corpus.random_roabp(crng, field, n, w, entry_degree=1)
                 for _ in range(2)]
        if seed != DEFAULT_SEED:
            d = Disguise(_disguise_rng(seed, 40_000 + j), n, PRIME)
            parts = [ab.evaldim.Roabp(d.program(ab, part.abp), d.order(part.order),
                                      part.width_profile) for part in parts]
        kinds["eliminate"].append(_eliminate_op(ab, f"eliminate#{j}", parts, t))

    kinds["bound"] = _bound_ops(ab, rng, mix["bound"])

    # interleave the kinds so every stretch of a pass exercises all of them
    ops = []
    longest = max(len(v) for v in kinds.values())
    for j in range(longest):
        for kind in SYMBOLIC_MIX:
            if j < len(kinds[kind]):
                ops.append(kinds[kind][j])
    warmup = [kinds[kind][0] for kind in SYMBOLIC_MIX]
    return Workload("symbolic", ops, warmup)


# -- criterion 10 rows ----------------------------------------------------------


def _bound_ops(ab, rng, count):
    """The first ``count`` (p, r) rows of criterion 10, each over the same
    seeded sample of n in 1..10^4."""
    sample = sorted(rng.sample(range(1, 10 ** 4 + 1), BOUND_SAMPLE))
    rows = [(Fraction(j, 10), r) for j in range(1, 10) for r in range(1, 10)]
    return [_bound_op(ab, p, r, sample) for p, r in rows[:count]]


def _bound_op(ab, p, r, sample):
    def run():
        return [ab.pit.iteration_bound_check(n, p, r) for n in sample]

    def check(results):
        return len(results) == len(sample) and all(x is True for x in results)
    return Op(f"bound p={p} r={r}", run, check)


BUILDERS = {
    "pit-corpus": build_pit_corpus,
    "pit-hard": build_pit_hard,
    "symbolic": build_symbolic,
}
