"""Hitting sets and identity testing for read-k oblivious programs.

The test needs the program only to evaluate and restrict it, and its read
order; k and the padding (``abp.padded_reads``) come from its read counts
and pad the read sequence only.  Each round picks, from its padded read order
as it stands, a large per-read-monotone, regularly-interleaving subset of the
free variables (``_choose_subset``), and walks the round's points over it
(sized by the width and degrees of the program left) until a point keeps the
restricted program nonzero (``_scan_round``).
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


def _scan_round(work: ObliviousAbp, subset, points, rng, recurse) -> tuple | None:
    """One round of ``read_k_pit``: (points tried, accepted point, its
    restriction), or None when no point keeps ``work`` nonzero.  A probe
    evaluates at a random point of the whole program drawn from ``rng``.
    1. The first candidate is probed, and a hit accepts it.
    2. At that miss the round program's terms are estimated, once.  A cheap
       round (at most ``DEFAULT_FASTPATH_TERMS``) with a source-sink path
       (estimate > 0) probes the candidate again; then the round program is
       expanded once: zero ends the round, else substitution decides that
       candidate and every later one.  In a large round the candidate's
       restriction goes to the capped step.  Each later one is restricted
       and draws its probe point, used or not, so later draws stay put: no
       source-sink path means zero, a probe hit nonzero, and anything else
       goes to the capped step.
    3. The capped step expands the restriction within
       ``DEFAULT_FASTPATH_TERMS`` terms (zero at once where the read-once
       relaxation is, ``ObliviousAbp.expand``), and only if that refuses
       tests it by ``recurse``, on a seed drawn then."""
    def capped(sub, fixed):
        try:
            return not sub.expand(DEFAULT_FASTPATH_TERMS).is_zero
        except GuardExceeded:
            return not recurse(sub, fixed, rng.getrandbits(32)).is_zero

    candidates = ((tried, pt, dict(zip(subset, pt))) for tried, pt in enumerate(points, 1))
    tried, pt, fixed = next(candidates)     # every round has a point
    if work.evaluate(_probe_point(work, fixed, rng)) != 0:
        return tried, pt, work.restrict(fixed)
    est = work.estimated_terms()
    if est <= DEFAULT_FASTPATH_TERMS:
        if est and work.evaluate(_probe_point(work, fixed, rng)) != 0:
            return tried, pt, work.restrict(fixed)
        if not (poly := work.expand()).is_zero:
            for tried, pt, fixed in itertools.chain([(tried, pt, fixed)], candidates):
                if not poly.substitute(fixed).is_zero:
                    return tried, pt, work.restrict(fixed)
    else:
        sub = work.restrict(fixed)
        if capped(sub, fixed):
            return tried, pt, sub
        for tried, pt, fixed in candidates:
            sub = work.restrict(fixed)
            point = _probe_point(work, fixed, rng)
            if sub.reaches_sink and (sub.evaluate(point) != 0 or capped(sub, fixed)):
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
    accepts the first of the generator's points over y_i whose restriction
    stays nonzero; that restriction is the next round's program.  An
    exhausted round means zero; else the accepted points make a witness,
    re-checked by evaluation.  With the grid generator the verdict is exact.
    With random points a nonzero verdict is certain but a zero one is
    one-sided: a nonzero polynomial with individual degrees d_v < p vanishes
    at a uniform point with probability at most 1 - prod(1 - d_v/p)
    (Schwartz-Zippel).  A degree bound >= p is refused (``ValueError``) under
    every generator, and so is a round past the point guard
    (``GuardExceeded``); a recursive test's refusal reaches the caller.
    """
    def recurse(sub, fixed, sub_seed):      # padded for this round's lacking reads
        return read_k_pit(_pad(sub, [v for v in lacking if v not in fixed]),
                          generator, sub_seed, count, path)

    k, missing = _missing_reads(abp)
    work = abp
    rng = random.Random(seed)
    assigned: dict = {}
    iterations: list = []
    while order := work.read_order() + (lacking := [v for v in missing if v not in assigned]):
        subset, floor = _choose_subset(order)
        size, points = _round_points(work, subset, k, generator, seed + len(iterations),
                                     count, path)
        tried, chosen, work = (_scan_round(work, subset, points, rng, recurse)
                               or (size, None, work))
        iterations.append(IterationRecord(subset, floor, size, tried, chosen))
        if chosen is None:
            return PitVerdict(True, None, iterations, generator, abp.num_vars, k)
        assigned.update(zip(subset, chosen))
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
    2^15 entries hold about 8 MB.  Neither radicand holds r, so the checks of
    one (n, p, bits) for every r share these roots."""
    return _iroot(n ** e << bits * b, b)


def _decision(a_lo: int, m: int, a: int, b: int, r: int, bits: int) -> bool | None:
    """True or False where one precision's enclosures decide the inequality for
    p = a/b, else None.  n^(1-p) lies in [a_lo, a_lo + 1] / 2^bits and
    n - n^p/r in [m - 1, m] / (r*2^bits), so (n - n^p/r)^(1-p) lies in
    [c_lo, c_hi] / 2^bits, c_lo and c_hi - 1 the floor b-th roots of the floors
    of max(m-1, 0)^c and m^c times 2^(bits*a) / r^c (c_hi = 0 at m = 0).  It
    holds if c_hi <= t and fails if c_lo >= u, t and u as below."""
    c = b - a
    step = -(-(c << bits) // (b * r))       # (1-p)/r * 2^bits, rounded up
    t = a_lo - step
    if m:
        if t > 0 and (m ** c << bits * a) < t ** b * r ** c:
            return True
    elif t >= 0:
        return True
    u = t + 2
    if u <= 0 or (max(m - 1, 0) ** c << bits * a) >= u ** b * r ** c:
        return False
    return None


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
    b-th roots at a scale of 2^bits, and the precision doubles from ``bits``
    until the enclosures resolve the comparison.  Only the roots of n^p and
    n^(1-p) are taken: a floor root of the inner term is compared with an
    integer s only, and floor(root_b(h)) <= s iff h < (s+1)^b and
    floor(X/Y) < Z iff X < Z*Y, so powers of integers decide in its place.
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
        a_lo = _scaled_root(n, b - a, b, bits)
        m = (n * r << bits) - _scaled_root(n, a, b, bits)     # >= 0: n^p <= n*r
        if (decided := _decision(a_lo, m, a, b, r, bits)) is not None:
            return decided
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
