"""Hitting sets and identity testing for read-k oblivious programs.

The test needs the program only to evaluate and restrict it, and its read
order; k and the padding (``abp.padded_reads``) come from its read counts
and pad the read sequence only.  Each round picks, from its padded read order
as it stands, a large per-read-monotone, regularly-interleaving subset of the
free variables (``_choose_subset``), and walks the round's points over it
(sized by the width and degrees of the program left) until a point keeps the
restricted program nonzero.  Candidates get one probe each until the round's
first miss.  A round with no source-sink path then ends; a cheap one probes
the missed candidate once more and is expanded once only if that misses too;
in a large one every later candidate is restricted first: no source-sink
path means zero, else a probe of the restriction, a capped expansion (zero at
once if the read-once relaxation is), and a recursion only where it refuses.
The accepted candidate's restriction is the next round's program, nonzero
and so with a nonzero read-once relaxation.
``_round_points`` makes a round's points (grid, random or a user file), and
the test walks them as they are made: the paper's hitting set, the product
of the rounds' sets, is never stored.  Grid points make the verdict exact;
random ones trade completeness for size.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .abp import ObliviousAbp, _missing_reads, _pad
from .algebra import GuardExceeded
from .sequences import _prune_table

DEFAULT_POINT_GUARD = 10 ** 6
DEFAULT_FASTPATH_TERMS = 4096
MAX_P_DENOMINATOR = 10 ** 4


@dataclass
class IterationRecord:
    """One round of the identity test: the chosen variable subset, the size
    floor it had to meet, and the accepted point (None when the round
    exhausted its hitting set)."""

    subset: tuple
    size_floor: float
    h_size: int
    points_tried: int
    chosen: tuple | None


@dataclass
class PitVerdict:
    is_zero: bool
    witness: tuple | None
    iterations: tuple
    generator: str
    n: int
    k: int

    def __post_init__(self) -> None:
        self.iterations = tuple(self.iterations)


def _round_points(work: ObliviousAbp, vars, k: int, generator: str, seed: int,
                  count: int | None, path) -> tuple:
    """One round's point source over ``vars`` of the read-k program ``work``:
    (size, points).  Every refusal comes before the first point; grid and
    random points are made only when the caller reaches them.  A degree bound
    >= p is refused whatever the generator: x^p - x vanishes at every point of
    F_p^n, so no point set tells it from 0.  The grid {0..d_v} per variable
    hits every nonzero polynomial with those individual degree bounds,
    unconditionally (and ignores the width).  Random draws ``count`` points,
    by default (|vars| * w^(2k) * max(d, 1))^2 for the program's width w, the
    only use of the width.  External loads a user file, one assignment per
    line, decimal field elements in declared variable order; its validity as
    a generator is trusted."""
    guard = DEFAULT_POINT_GUARD
    field = work.field
    all_degrees = work.individual_degrees()
    degrees = [all_degrees[v] for v in vars]
    if (d := max(degrees, default=0)) >= field.p:
        raise ValueError(f"degree bound {d} >= p = {field.p}: no {generator} points "
                         "hit every nonzero polynomial, since x^p - x vanishes on all of F_p")
    if generator == "grid":
        size = 1
        for d in degrees:
            size *= d + 1
            if size > guard:
                raise GuardExceeded(f"grid of {size}+ points exceeds guard {guard}")
        return size, itertools.product(*(range(d + 1) for d in degrees))
    if generator == "random":
        if count is None:
            count = max(1, (len(vars) * work.width ** (2 * k) * max(d, 1)) ** 2)
        if count < 1:
            raise ValueError(f"random generator needs count >= 1, got {count}")
        if count > guard:
            raise GuardExceeded(f"{count} random points exceeds guard {guard}")
        rng = random.Random(seed)
        return count, (tuple(field.random(rng) for _ in vars) for _ in range(count))
    if generator != "external":
        raise ValueError(f"unknown generator {generator!r}")
    if path is None:
        raise ValueError("external generator needs a points file path")
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            try:
                vals = [int(x) for x in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer entry") from exc
            if len(vals) != len(vars):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(vars)} values, got {len(vals)}"
                )
            points.append(tuple(v % field.p for v in vals))
    if not points:
        raise ValueError(f"{path}: no points")
    return len(points), points


def _choose_subset(order: list) -> tuple:
    """One pruning round on the padded read order as it stands (see the
    ``sequences`` notes), each variable named by the position of its first
    read.  Returns (surviving variable ids, size floor) for n free variables."""
    seen: dict = {}
    pos: list = []
    for t, v in enumerate(order):
        e, c = seen.get(v, (t, 0))
        seen[v] = e, c + 1
        if c == len(pos):
            pos.append({})
        pos[c][e] = t
    _, regular = _prune_table([list(p) for p in pos], pos)
    n, k = len(seen), len(pos)
    return tuple(sorted(order[e] for e in regular)), n ** (1.0 / 2 ** (k - 1)) / 3 ** (k * k)


def iteration_bound(n: int, k: int) -> float:
    """Round-count ceiling 2 * 3^(k^2) * n^(1 - 1/2^(k-1)) for the test."""
    if n <= 0:
        return 1.0
    return 2 * 3 ** (k * k) * n ** (1 - 1.0 / 2 ** (k - 1))


def _probe_point(work: ObliviousAbp, assignment: dict, rng) -> list:
    """A random point of the whole program, the candidate's values in place."""
    point = [work.field.random(rng) for _ in range(work.num_vars)]
    for v, value in assignment.items():
        point[v] = value
    return point


def _scan_round(work: ObliviousAbp, subset, points, rng, generator, count,
                path, lacking) -> tuple | None:
    """One round of ``read_k_pit``: (points tried, accepted point, its
    restriction or None if none was built), or None when the round exhausts
    its points.  ``lacking``, the round's missing reads, pads a recursion's input."""
    poly = None
    restrict_first = False
    for tried, pt in enumerate(points, 1):
        assignment = dict(zip(subset, pt))
        sub = work.restrict(assignment) if restrict_first else None
        if poly is None:
            point = _probe_point(work, assignment, rng)
            if sub is not None and not sub.reaches_sink:
                continue
            if (sub or work).evaluate(point) != 0:
                return tried, pt, sub
            if not restrict_first:      # the round's first miss
                est = work.estimated_terms()
                if est > DEFAULT_FASTPATH_TERMS:
                    restrict_first = True
                    sub = work.restrict(assignment)
                elif est and work.evaluate(_probe_point(work, assignment, rng)) != 0:
                    return tried, pt, None      # a second probe hits before any expansion
                else:
                    poly = work.expand()
                    if poly.is_zero:
                        return None
        if poly is not None:
            rest = poly.substitute(assignment)
        else:
            try:
                rest = sub.expand(DEFAULT_FASTPATH_TERMS)
            except GuardExceeded:
                rest = read_k_pit(_pad(sub, [v for v in lacking if v not in assignment]),
                                  generator, rng.getrandbits(32), count, path)
        if not rest.is_zero:
            return tried, pt, sub
    return None


def read_k_pit(abp: ObliviousAbp, generator: str = "grid", seed: int = 0,
               count: int | None = None, path=None) -> PitVerdict:
    """White-box identity test for a read-k oblivious program.

    k is the tight read multiplicity, and a round's read sequence is its
    program's read order and then the reads up to k that the free variables
    lack: padding never enters a program, save a restriction handed to a
    recursive test, which must prune with this k.  Each round prunes the read
    sequence to a per-read-monotone, regularly-interleaving subset y_i and
    scans the generator's points over y_i in order for the first whose
    restriction stays nonzero.  Whatever the
    generator, each candidate gets one random probe up to the round's first
    miss.  There the round program's terms are estimated, once.  One with no
    source-sink path (estimate 0) ends the round.  One within
    ``DEFAULT_FASTPATH_TERMS`` probes the missed candidate again at a fresh
    random point, accepting it on a nonzero value, and is expanded only at a
    second miss (zero ends the round, else substitution decides each point).
    In a larger one, that candidate and every later one are restricted first,
    with no second probe.  A restriction with no source-sink path is zero
    (its probe point is still drawn, so later draws stay put); any other gets
    the probe, then an expansion guarded at ``DEFAULT_FASTPATH_TERMS`` terms,
    and a recursive test only if it refuses because a partial product
    outgrows that.  That expansion is zero before any term map when the
    restriction's degree box is large and its read-once relaxation is zero
    (``ObliviousAbp.expand``), as for cancelling lanes.  The accepted
    candidate's restriction is the next round's program; being nonzero, it is
    marked as having a nonzero relaxation, so its expansion skips that check.
    An exhausted round means zero; else the accepted points make a witness,
    re-checked by evaluation.  With the grid generator the verdict is exact.
    With random points a nonzero verdict is certain but a zero one is
    one-sided: a nonzero polynomial with individual degrees d_v < p vanishes
    at a uniform point with probability at most 1 - prod(1 - d_v/p)
    (Schwartz-Zippel).  A degree bound >= p is refused under every generator.
    """
    k, missing = _missing_reads(abp)
    work = abp
    rng = random.Random(seed)
    assigned: dict = {}
    iterations: list = []
    while order := work.read_order() + (lacking := [v for v in missing if v not in assigned]):
        subset, floor = _choose_subset(order)
        size, points = _round_points(work, subset, k, generator, seed + len(iterations),
                                     count, path)
        tried, chosen, sub = (_scan_round(work, subset, points, rng, generator, count,
                                          path, lacking) or (size, None, None))
        iterations.append(IterationRecord(subset, floor, size, tried, chosen))
        if chosen is None:
            return PitVerdict(True, None, iterations, generator, abp.num_vars, k)
        assigned.update(zip(subset, chosen))
        work = sub or work.restrict(dict(zip(subset, chosen)))
        work.relaxation_zero = False    # nonzero, so its read-once relaxation is too
    if work.evaluate([0] * work.num_vars) == 0:
        return PitVerdict(True, None, iterations, generator, abp.num_vars, k)
    witness = tuple(assigned.get(v, 0) for v in range(abp.num_vars))
    if abp.evaluate(witness) == 0:
        raise RuntimeError("internal error: witness evaluates to zero")
    return PitVerdict(False, witness, iterations, generator, abp.num_vars, k)


# -- iteration-count inequality ------------------------------------------------


def _iroot(value: int, k: int) -> int:
    """Floor of the integer k-th root.  The float root picks the start and
    integer checks decide.  Below 2^52 the float root x is the floor if
    x^k <= value < (x+1)^k, and a step of one either way covers its rounding.
    A larger root, or a seed off by more (a poor libm), goes to Newton's
    descent y = ((k-1)x + value // x^(k-1)) // k from the seed shifted into
    place, which stops at the floor r.  Since (k-1)x is an integer, y is the
    floor of ((k-1)x + value/x^(k-1))/k, at least value^(1/k) by AM-GM; so
    every step, the first included, gives y >= r.  While x > r, x^k > value,
    so value/x^(k-1) < x and y < x: the descent goes on.  It stops at the
    first y >= x, where x <= r, and so x = r."""
    if value < 0:
        raise ValueError("negative radicand")
    if value == 0:
        return 0
    shift = max(value.bit_length() // k - 52, 0)
    x = max(int(math.exp(math.log(value) / k - shift * math.log(2))), 0)
    if not shift:
        if x ** k <= value:
            if value < (x + 1) ** k:
                return x
            if value < (x + 2) ** k:
                return x + 1
        elif (x - 1) ** k <= value:
            return x - 1
    x = x + 2 << shift
    x = ((k - 1) * x + value // x ** (k - 1)) // k      # >= the floor, by AM-GM
    while (y := ((k - 1) * x + value // x ** (k - 1)) // k) < x:
        x = y
    return x


@functools.lru_cache(maxsize=1 << 15)
def _scaled_root(n: int, e: int, b: int, bits: int) -> int:
    """Floor b-th root of n^e * 2^(bits*b): n^(e/b) as a numerator over 2^bits.
    A sweep over p, then r, then n asks for each again for every r.  That order
    is cyclic in n, an LRU's worst case: once a p's 2*n_max keys (n^p and
    n^(1-p) for each n) pass the 2^15 entries, every call misses, so the memo
    helps up to n_max = 16,384.  The default n_max = 10^4 needs 20,000 keys;
    2^15 entries hold about 8 MB."""
    return _iroot(n ** e << bits * b, b)


def _enclosures(n: int, a: int, b: int, r: int, bits: int) -> tuple:
    """Enclosures [a_lo, a_hi] of n^(1-p) and [c_lo, c_hi] of (n - n^p/r)^(1-p) for
    p = a/b and c = b - a, as numerators over 2^bits: floor b-th roots of the power
    times 2^(bits*b), and those + 1 (a zero base gives 0).  The inner term lies in
    [m - 1, m] / (r*2^bits), m = n*r*2^bits - (root for n^p), and its scaled power
    is m^c * 2^(bits*a) / r^c, whose floor has the same floor root.  Its radicand
    only moves from m - 1 to m, which seldom moves the root, so c_hi steps up
    from c_lo by exact checks; only a move of two or more takes a fourth root.
    The roots for n^(1-p) and n^p are shared through ``_scaled_root``: r only
    divides n^p after its root is taken, so neither radicand holds r, and the
    checks of one (n, p, bits) for every r take them once."""
    c = b - a
    root_a = _scaled_root(n, c, b, bits)
    m = (n * r << bits) - _scaled_root(n, a, b, bits)     # >= 0: n^p <= n*r
    c_lo = _iroot((max(m - 1, 0) ** c << bits * a) // r ** c, b)
    if not m:
        return root_a, root_a + 1, c_lo, 0
    hi = (m ** c << bits * a) // r ** c
    c_hi = c_lo                 # hi's floor root: c_lo, one step up, or a root
    if (c_hi + 1) ** b <= hi:
        c_hi = c_hi + 1 if (c_hi + 2) ** b > hi else _iroot(hi, b)
    return root_a, root_a + 1, c_lo, c_hi + 1


def _p_ratio(p) -> tuple:
    """p = a/b as (a, b); refused unless 0 < p < 1 and b <= ``MAX_P_DENOMINATOR``."""
    if type(p) is not Fraction:
        p = Fraction(str(p)) if isinstance(p, float) else Fraction(p)
    a, b = p.numerator, p.denominator
    if not 0 < a < b:
        raise ValueError("p must lie strictly between 0 and 1")
    if b > MAX_P_DENOMINATOR:
        raise ValueError(f"p = {p} has denominator {b} > {MAX_P_DENOMINATOR}")
    return a, b


def iteration_bound_check(n: int, p, r: int, bits: int = 32) -> bool:
    """Exact decision of the inequality

        n^(1-p) - (n - n^p / r)^(1-p) >= (1-p) / r

    for 0 < p < 1 (given as an exact rational, e.g. the string "0.1") and
    positive integers n and r.  With p = a/b, each side is enclosed by integer
    b-th roots at a scale of 2^bits, and the comparisons are products of
    integers; the precision doubles from ``bits`` until one of them resolves.
    A b above ``MAX_P_DENOMINATOR`` is refused: the radicands have bits*b bits.
    On valid input the answer is always True, so ``False`` flags a fault in
    the enclosures: with delta = n^p/r <= n, the mean value theorem gives
    n^(1-p) - (n-delta)^(1-p) = (1-p) * delta * xi^(-p) for some xi < n, and
    delta * xi^(-p) > delta * n^(-p) = 1/r.
    """
    if not type(n) is type(r) is type(bits) is int:
        name, value = next((name, value) for name, value in
                           (("n", n), ("r", r), ("bits", bits)) if type(value) is not int)
        raise ValueError(f"{name} must be an integer, got {value!r}")
    a, b = _p_ratio(p)
    if r < 1 or n < 1:
        raise ValueError("r and n must be positive integers")
    if bits < 1:
        raise ValueError(f"bits must be a positive integer, got {bits}")
    while True:
        a_lo, a_hi, c_lo, c_hi = _enclosures(n, a, b, r, bits)
        rhs = (b - a) << bits       # (1-p)/r, times b * r * 2^bits
        if (a_lo - c_hi) * b * r >= rhs:
            return True
        if (a_hi - c_lo) * b * r < rhs:
            return False
        bits *= 2
        if bits > 4096:
            raise RuntimeError("interval refinement failed to resolve comparison")


def iteration_bound_sweep(p_values, r_values, n_max: int):
    """(p, r, n, ok) over the full parameter grid, p, then r, then n, as an
    iterator.  Every p is checked here, so a bad one is refused before a row."""
    p_values = list(p_values)
    for p in p_values:
        _p_ratio(p)
    return ((p, r, n, iteration_bound_check(n, p, r))
            for p in p_values for r in r_values for n in range(1, n_max + 1))
