"""Property checks of the fast exact paths against slower references.

``reference_expand`` is the straightforward expansion that ``expand`` used to
be: every entry becomes a SparsePoly and the layer product is formed with the
public ``+`` and ``*``.  The fast ``expand`` must agree with it exactly, every
polynomial the library builds must already be in the canonical form the
public constructor would produce, and the grid identity test must either agree
with the expansion oracle or refuse.  Mutated program documents must either
load and round-trip byte-identically through the canonical text, or be
refused with a ValueError.

``reference_tuple_expand`` is ``expand``'s loop as it was before term maps
were keyed by packed ints: each key is an exponent tuple, rebuilt on every
shift.  ``expand`` must give the same terms, in the same order where its
estimate passes the guard and it multiplies in order, and refuse
(``GuardExceeded``) at exactly the same guards.  Its cut falls at 0, inside
and at L, and every split result equals ``reference_expand``.  No consumer
of a polynomial reads its insertion order: ``str``, ``pd_rank``,
``eval_dim``, ``roabp_synthesize`` and ``substitute`` give the same results
on a polynomial whose term map is reversed.  Like ``expand``, it decides
a program as zero before the guard when it has no source-sink path, or when
its degree box passes layers * width^2 and its read-once relaxation is zero.

``relaxed`` is that relaxation, layer i reading fresh variable i;
``relaxation_zero`` must equal its ``reference_expand`` being zero, and a
program whose relaxation is zero must expand to zero.  ``crossed_lanes``
builds zero read-k programs the relaxation misses, so capped expansions that
refuse a zero, and recursive tests, keep their inputs.

``reference_reaches_sink`` enumerates source-to-sink paths of nonzero
entries depth first.  ``reaches_sink`` must agree with it, and a program
with no such path must expand to zero by ``reference_expand``.
``reference_evaluate`` is ``evaluate`` as it was, one ``eval_at`` grid per
layer; ``evaluate`` must give the same value at any integer point.

``reference_restrict`` multiplies the ``eval_at`` grids of each run of fixed
layers matrix by matrix and builds every layer and the program through the
validating constructors, and ``reference_synthesize`` is the read-once
synthesis that scans the whole prefix grid at every cut until it holds the
cut's partial-derivative rank of restrictions, and interpolates each layer's
entries from d_v + 1 substituted points.  ``restrict`` and
``roabp_synthesize``, which builds each cut's basis from the previous cut's,
must give the same canonical text as these, also on P_2, P_3 and Q_2-Q_5 in
both directions; ``restrict``, which skips validation, must also equal its
result rebuilt through ``ObliviousAbp`` and ``UniMatrix``, with the same
support and degree in every layer.  ``_pad`` must keep the program's layers
and append one layer equal to ``UniMatrix.identity`` for each missing read.

``reference_pd_rows`` is the partial derivative matrix as it was built
before its keys were taken with ``itemgetter``: every exponent of every term
is scanned for a variable outside S and T, and columns are keyed by
T-exponent tuples.  ``pd_rank`` must give the same rank as
``reference_pd_rank``, and the same refusal text when a variable outside S
and T has a nonzero exponent.  ``reference_pn_polynomial`` multiplies the
row sums and then the column sums into one product, one linear form at a
time, and ``reference_qn_polynomial`` sums each matching's z-weighted product
of (x + y) forms, both through ``SparsePoly``'s ``*`` and ``+``.
``_pn_polynomial`` and ``_qn_polynomial``, which list their keys straight
into the final layout, must give the same keys and coefficients in the same
order, with the same layout bounds; for a block with a repeated index,
``_pn_polynomial`` need only give the same polynomial.

``reference_iroot`` is the integer root by Newton's method from a power of
two, and ``reference_enclosures`` the ``Fraction`` enclosures of the
iteration-count inequality, built by ``reference_pow_bounds``.  ``_iroot``
must give the same roots, also where its float seed gives way to Newton's
descent and from a seed that is off.  ``iteration_bound_check``'s decision at
each precision, made by comparing integer powers, must be True, False or
undecided exactly where those enclosures' endpoints are.

``reference_prune`` is ``sequences.prune`` as it was: the chain of
longest monotone subsequences through ``longest_monotone``, then the pair
pruning on (element, occurrence) lists, re-deriving each sublist's reads,
directions and occurrence maps.  ``prune``, which keeps a read that is
already monotone whole, builds the occurrence maps once per sublist and never
re-checks the reads of a remainder, must give the same two subsets, or raise
the same type of exception.  ``_forced_blocks_hold``, ``prune``'s closing
walk over a position table, must pass exactly the subsets whose entries pass
``_reads_of`` with ``_direction`` and ``_check_interleaving``.
``reference_choose_subset`` is a round's pruning as it was: the
per-read-monotone subset, the sequence restricted to it (relabeled), the
regularly-interleaving subset of that by ``reference_prune``, read back
through the restricted labels.  ``pit._choose_subset``, which prunes the
raw read order in place, must give the same subset and floor.

``reference_two_regular_blocks`` and ``reference_reconstruct`` are the block
partition of a read-pair projection and the longest-chain walk as they were,
with the checks no valid sequence fails; the trimmed helpers must give the
same blocks and chains.  ``reference_repack`` is ``Layout.repack`` as it was,
moving adjacent fields with one shift as a block; ``repack``, which moves
each field on its own, must give the same map.

``reference_read_k_pit`` is the identity test that scans each round candidate
by candidate: every candidate is restricted, gets one random probe, and is
then expanded with a guard of ``DEFAULT_FASTPATH_TERMS`` terms, or tested
recursively if the expansion refuses.  It picks each round's subset with
``reference_choose_subset``.  ``read_k_pit``, whose ``_scan_round`` probes
only a round's first candidate, then probes a cheap round's candidate again
before it expands the round once, and decides a large round's later
candidates on their restriction, must give the same verdict, witness and
iteration records, or the same refusal.
"""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abpkit import abp as abp_module
from abpkit import pit, sequences
from abpkit.abp import (DEFAULT_EXPAND_GUARD, ObliviousAbp, _missing_reads, _pad,
                        padded_reads, parse_text, to_canonical_text, to_json_obj)
from abpkit.algebra import (GuardExceeded, Layout, LinearSolver, PrimeField, SparsePoly,
                            UniMatrix)
from abpkit.corpus import (random_k_pass_abp, random_per_read_monotone_sequence,
                           random_read_k_abp, random_roabp)
from abpkit.evaldim import (Roabp, _greedy_basis, _pd_rows, eval_dim, k_pass_to_roabp,
                            pd_rank, roabp_synthesize)
from abpkit.hardpoly import (_pn_polynomial, _qn_polynomial, eliminate_summand, gen_pn,
                             gen_qn, pn_var, qn_matchings, qn_x, qn_y, qn_z)
from abpkit.pit import IterationRecord, PitVerdict, read_k_pit
from abpkit.sequences import (ReadSequence, SequenceError, _check_interleaving, _direction,
                              _reads_of, is_regularly_interleaving, longest_monotone, prune)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def reference_expand(abp: ObliviousAbp) -> SparsePoly:
    n = abp.num_vars
    row = [SparsePoly.const(abp.field, n, 1)]
    for layer in abp.layers:
        out = []
        for j in range(layer.width_out):
            acc = SparsePoly.zero(abp.field, n)
            for i, poly in enumerate(row):
                if poly.is_zero:
                    continue
                terms = {}
                for e, c in enumerate(layer.entries[i][j]):
                    exps = [0] * n
                    if e:
                        exps[layer.var] = e
                    terms[tuple(exps)] = c
                acc = acc + poly * SparsePoly(abp.field, n, terms)
            out.append(acc)
        row = out
    return row[0]


def reference_tuple_expand(abp: ObliviousAbp,
                           guard: int = DEFAULT_EXPAND_GUARD) -> SparsePoly:
    est = abp.estimated_terms()
    if not abp.reaches_sink or (est > len(abp.layers) * abp.width ** 2
                                and abp.relaxation_zero):
        return SparsePoly.zero(abp.field, abp.num_vars)
    p = abp.field.p
    row = [{(0,) * abp.num_vars: 1}]
    for i, layer in enumerate(abp.layers, 1):
        v = layer.var
        out = [{} for _ in range(layer.width_out)]
        for terms, entries in zip(row, layer.entries):
            if not terms:
                continue
            for acc, coeffs in zip(out, entries):
                get = acc.get
                shifts = [(e, c) for e, c in enumerate(coeffs) if c]
                for exps, a in terms.items():
                    for e, c in shifts:
                        key = exps[:v] + (exps[v] + e,) + exps[v + 1:] if e else exps
                        acc[key] = get(key, 0) + a * c
        row = [{exps: r for exps, a in acc.items() if (r := a % p)} for acc in out]
        if (size := max(map(len, row))) > guard:
            raise GuardExceeded(f"expansion after layer {i} holds {size} terms, "
                                f"more than guard {guard}")
    return SparsePoly(abp.field, abp.num_vars, row[0])


def refusal_or_result(expand, abp: ObliviousAbp, guard: int):
    """``expand(abp, guard)``, or the text of its ``GuardExceeded``."""
    try:
        return expand(abp, guard)
    except GuardExceeded as exc:
        return str(exc)


def reference_reaches_sink(abp: ObliviousAbp) -> bool:
    """Depth-first enumeration of source-to-sink paths over nonzero entries,
    stopping at the first complete one."""
    def walk(depth: int, vertex: int) -> bool:
        if depth == len(abp.layers):
            return True
        return any(walk(depth + 1, j)
                   for j, e in enumerate(abp.layers[depth].entries[vertex]) if e)
    return walk(0, 0)


def relaxed(abp: ObliviousAbp) -> ObliviousAbp:
    """The read-once relaxation: layer i reads fresh variable i, a constant
    layer reads nothing."""
    return ObliviousAbp(abp.field, len(abp.layers), tuple(
        UniMatrix(abp.field, None if layer.var is None else i, layer.entries)
        for i, layer in enumerate(abp.layers)))


def crossed_lanes(rng: random.Random, field: PrimeField, n: int, k: int,
                  max_degree: int) -> ObliviousAbp:
    """A zero read-k program (k >= 2) that the read-once relaxation misses.
    Two lanes multiply the same factor f_v(x_v) for every variable, the first
    lane at v's first read and the second at its last, with 1 at the other
    reads, and the sink subtracts them.  Relaxed, the lanes read different
    fresh variables wherever f_v is not constant.  Over (x0, 1), diag(x1, 1),
    diag(1, x0), diag(1, x1) the lanes compute x0*x1 - x0*x1 and the
    relaxation y1*y2 - y3*y4."""
    order = [v for v in range(n) for _ in range(k)]
    rng.shuffle(order)
    first = {v: pos for pos, v in reversed(list(enumerate(order)))}
    last = {v: pos for pos, v in enumerate(order)}
    factor = [tuple(rng.randrange(field.p) for _ in range(rng.randint(0, max_degree)))
              + (rng.randrange(1, field.p),) for _ in range(n)]
    layers = []
    for pos, v in enumerate(order):
        a = factor[v] if pos == first[v] else (1,)
        b = factor[v] if pos == last[v] else (1,)
        layers.append(UniMatrix(field, v, ((a, b),) if pos == 0 else ((a, ()), ((), b))))
    c = rng.randrange(1, field.p)
    layers.append(UniMatrix(field, None, (((c,),), ((field.p - c,),))))
    return ObliviousAbp(field, n, tuple(layers))


def corpus_program(rng: random.Random, field: PrimeField, n: int, k: int, width: int,
                   max_degree: int, zero_kind: str | None) -> ObliviousAbp:
    """A read-k corpus program, or crossed lanes (read at least twice) for
    ``zero_kind="crossed"``."""
    if zero_kind == "crossed":
        return crossed_lanes(rng, field, n, max(k, 2), max_degree)
    return random_read_k_abp(rng, field, n, k, width, max_entry_degree=max_degree,
                             term_budget=5000, zero_kind=zero_kind)


def reference_evaluate(abp: ObliviousAbp, point) -> int:
    """``evaluate`` as it was: one ``eval_at`` grid per layer, the row vector
    multiplied into it column by column."""
    p = abp.field.p
    vec = [1]
    for layer in abp.layers:
        grid = layer.eval_at(point[layer.var]) if layer.var is not None \
            else layer.eval_at(0)
        out = [0] * layer.width_out
        for j in range(layer.width_out):
            s = 0
            for i, v in enumerate(vec):
                if v:
                    s += v * grid[i][j]
            out[j] = s % p
        vec = out
    return vec[0] % p if vec else 1


def reference_mat_mul(field: PrimeField, a, b) -> tuple:
    """Product of two constant int matrices over F_p, entry by entry."""
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) % field.p
                       for j in range(len(b[0]))) for i in range(len(a)))


def reference_constant(field: PrimeField, grid) -> UniMatrix:
    return UniMatrix(field, None, tuple(tuple((c,) for c in row) for row in grid))


def reference_restrict(abp: ObliviousAbp, assignment) -> ObliviousAbp:
    """``restrict`` through the validating constructors: each fixed layer's
    ``eval_at`` grid, runs multiplied with ``reference_mat_mul``."""
    for i in assignment:
        if not 0 <= i < abp.num_vars:
            raise ValueError(f"assigned variable {i} out of range")
    merged = []
    pending = None
    for layer in abp.layers:
        if layer.var is None or layer.var in assignment:
            grid = layer.eval_at(0 if layer.var is None else assignment[layer.var])
            pending = grid if pending is None else reference_mat_mul(abp.field, pending, grid)
        else:
            if pending is not None:
                merged.append(reference_constant(abp.field, pending))
                pending = None
            merged.append(layer)
    if pending is not None:
        merged.append(reference_constant(abp.field, pending))
    return ObliviousAbp(abp.field, abp.num_vars, tuple(merged))


def _inv_vandermonde(field: PrimeField, npoints: int) -> list:
    p = field.p
    aug = [[pow(c, e, p) for e in range(npoints)]
           + [1 if r == c else 0 for r in range(npoints)] for c in range(npoints)]
    for col in range(npoints):
        piv = next(r for r in range(col, npoints) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(npoints):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [(x - c * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[npoints:] for row in aug]


def reference_synthesize(f: SparsePoly, order) -> Roabp:
    n = f.num_vars
    order = tuple(order)
    field = f.field
    if field.p <= f.total_degree():
        raise ValueError("field too small for synthesis")
    if n == 0:
        abp = ObliviousAbp(field, 0, (UniMatrix.constant(field, ((f.coefficient(()),),)),))
        return Roabp(abp, (), ())
    if f.is_zero:
        layers = tuple(UniMatrix(field, v, ((() if idx == 0 else (1,),),))
                       for idx, v in enumerate(order))
        return Roabp(ObliviousAbp(field, n, layers), order, (1,) * (n - 1))
    degs = f.individual_degrees()
    cur_basis = [f]
    layers = []
    profile = []
    for i in range(1, n + 1):
        v = order[i - 1]
        dv = degs[v]
        solver = LinearSolver(field, track_coords=True)
        if i < n:
            target = reference_pd_rank(f, order[:i], order[i:])
            basis_polys = []
            for a in itertools.product(*(range(degs[u] + 1) for u in order[:i])):
                g = f.substitute(dict(zip(order[:i], a)))
                if solver.try_add(g.terms):
                    basis_polys.append(g)
                    if len(basis_polys) == target:
                        break
        else:
            basis_polys = [SparsePoly.const(field, n, 1)]
            solver.try_add(basis_polys[0].terms)
        vinv = _inv_vandermonde(field, dv + 1)
        rows = []
        for g in cur_basis:
            coords_per_point = [solver.express(g.substitute({v: c}).terms,
                                               size=len(basis_polys))
                                for c in range(dv + 1)]
            rows.append(tuple(
                tuple(sum(vinv[e][c] * coords_per_point[c][s] for c in range(dv + 1))
                      % field.p for e in range(dv + 1))
                for s in range(len(basis_polys))))
        layers.append(UniMatrix(field, v, tuple(rows)))
        if i < n:
            profile.append(len(basis_polys))
        cur_basis = basis_polys
    return Roabp(ObliviousAbp(field, n, tuple(layers)), order, tuple(profile))


def reference_pd_rows(f: SparsePoly, S, T) -> list:
    S = sorted(S)
    T = sorted(T)
    allowed = set(S) | set(T)
    rows: dict = {}
    for exps, c in f.terms.items():
        for i, e in enumerate(exps):
            if e and i not in allowed:
                raise ValueError(f"polynomial mentions variable {i} outside S and T")
        skey = tuple(exps[i] for i in S)
        tkey = tuple(exps[i] for i in T)
        rows.setdefault(skey, {})[tkey] = c
    return list(rows.values())


def reference_pd_rank(f: SparsePoly, S, T) -> int:
    solver = LinearSolver(f.field)
    for row in reference_pd_rows(f, S, T):
        solver.try_add(row)
    return solver.rank


def reference_pn_polynomial(field: PrimeField, n: int, block) -> SparsePoly:
    nv = n * n
    poly = SparsePoly.const(field, nv, 1)
    for i in block:
        poly = poly * SparsePoly.linear(field, nv, {pn_var(n, i, j): 1 for j in block})
    for j in block:
        poly = poly * SparsePoly.linear(field, nv, {pn_var(n, i, j): 1 for i in block})
    return poly


def reference_qn_polynomial(field: PrimeField, n: int) -> SparsePoly:
    nv = 3 * n
    total = SparsePoly.zero(field, nv)
    for i, matching in enumerate(qn_matchings(n), start=1):
        branch = SparsePoly.variable(field, nv, qn_z(n, i))
        for j, k in matching:
            branch = branch * SparsePoly.linear(field, nv, {qn_x(n, j): 1, qn_y(n, k): 1})
        total = total + branch
    return total


class ReferenceTuplePoly:
    """``SparsePoly`` as it was before its keys were packed: a map from dense
    exponent tuples to coefficients in [1, p), every operation rebuilding
    tuples."""

    def __init__(self, field: PrimeField, num_vars: int, terms: dict):
        p = field.p
        self.field, self.num_vars = field, num_vars
        self.terms = {tuple(e): c % p for e, c in terms.items() if c % p}

    def _wrap(self, terms: dict) -> "ReferenceTuplePoly":
        out = ReferenceTuplePoly(self.field, self.num_vars, {})
        out.terms = terms
        return out

    def __eq__(self, other) -> bool:
        return (self.field, self.num_vars, self.terms) == (other.field, other.num_vars,
                                                           other.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def individual_degrees(self) -> tuple:
        return tuple(max((e[i] for e in self.terms), default=0) for i in range(self.num_vars))

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def __add__(self, other):
        p = self.field.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            v = (out.get(exps, 0) + c) % p
            if v:
                out[exps] = v
            else:
                out.pop(exps, None)
        return self._wrap(out)

    def __neg__(self):
        return self._wrap({e: self.field.p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        p = self.field.p
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return self._wrap({e: r for e, c in out.items() if (r := c % p)})

    def scale(self, c: int):
        p = self.field.p
        c %= p
        return self._wrap({e: (c * v) % p for e, v in self.terms.items()} if c else {})

    def substitute(self, assignment):
        if not assignment:
            return self
        p = self.field.p
        vals = {i: v % p for i, v in assignment.items()}
        out: dict = {}
        for exps, c in self.terms.items():
            factor = c
            new = list(exps)
            for i, v in vals.items():
                if exps[i]:
                    factor = (factor * pow(v, exps[i], p)) % p
                    new[i] = 0
            if factor == 0:
                continue
            key = tuple(new)
            t = (out.get(key, 0) + factor) % p
            if t:
                out[key] = t
            else:
                out.pop(key, None)
        return self._wrap(out)

    def evaluate(self, point) -> int:
        p = self.field.p
        total = 0
        for exps, c in self.terms.items():
            v = c
            for i, e in enumerate(exps):
                if e:
                    v = (v * pow(point[i] % p, e, p)) % p
            total = (total + v) % p
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items(), reverse=True):
            factors = [str(c)] if c != 1 or not any(exps) else []
            factors += [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                        for i, e in enumerate(exps) if e]
            parts.append("*".join(factors))
        return " + ".join(parts)


def reference_iroot(value: int, k: int) -> int:
    if value < 0:
        raise ValueError("negative radicand")
    if value == 0:
        return 0
    x = 1 << ((value.bit_length() + k - 1) // k + 1)
    while True:
        y = ((k - 1) * x + value // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > value:
        x -= 1
    return x


def reference_pow_bounds(base: Fraction, exp: Fraction, bits: int) -> tuple:
    """Rational enclosure of base**exp for base >= 0 and 0 < exp < 1.  The
    root is ``pit._iroot``, checked against ``reference_iroot`` on its own:
    from a power of two, Newton's method needs over a thousand steps for a
    1,000th root."""
    if base == 0:
        return Fraction(0), Fraction(0)
    a, b = exp.numerator, exp.denominator
    num = base.numerator ** a * (1 << (bits * b))
    den = base.denominator ** a
    root = pit._iroot(num // den, b)
    scale = 1 << bits
    return Fraction(root, scale), Fraction(root + 1, scale)


def reference_enclosures(n: int, p: Fraction, r: int, bits: int) -> tuple:
    """Enclosures [a_lo, a_hi] of n^(1-p) and [c_lo, c_hi] of
    (n - n^p/r)^(1-p), as numerators over 2^bits."""
    nfrac = Fraction(n)
    a_lo, a_hi = reference_pow_bounds(nfrac, 1 - p, bits)
    b_lo, b_hi = reference_pow_bounds(nfrac, p, bits)
    inner_lo = max(nfrac - b_hi / r, Fraction(0))
    inner_hi = max(nfrac - b_lo / r, Fraction(0))
    c_lo, _ = reference_pow_bounds(inner_lo, 1 - p, bits)
    _, c_hi = reference_pow_bounds(inner_hi, 1 - p, bits)
    return tuple(int(x * (1 << bits)) for x in (a_lo, a_hi, c_lo, c_hi))


def reference_per_read_monotone(S: ReadSequence) -> frozenset:
    alive = set(range(S.n))
    for i in range(2, S.k + 1):
        order_i = [e for e in S._reads[i - 1] if e in alive]
        picked, _ = longest_monotone(order_i)
        alive = set(picked)
    return frozenset(alive)


def reference_prune_pair(pairs: list) -> set:
    elems = {e for e, _ in pairs}
    if len(elems) <= 1:
        return elems
    read1 = [e for e, c in pairs if c == 1]
    read2 = [e for e, c in pairs if c == 2]
    d1 = _direction(read1)
    d2 = _direction(read2)
    if d1 is None or d2 is None:
        raise SequenceError("pair pruning requires monotone reads")
    if {d1, d2} == {"inc", "dec"}:
        return elems
    occ1 = {}
    occ2 = {}
    for idx, (e, c) in enumerate(pairs):
        (occ1 if c == 1 else occ2)[e] = idx
    x = max(elems, key=lambda e: (occ2[e] - occ1[e], -e))
    r = occ2[x] - occ1[x]
    inside_first = [e for e in elems
                    if e != x and occ1[x] < occ1[e] < occ2[x]]
    inside_second = [e for e in elems
                     if e != x and occ1[x] < occ2[e] < occ2[x]]
    if len(inside_first) >= len(inside_second):
        block = {x, *inside_first}
        y = max(block, key=lambda e: occ2[e])
        lo, hi = occ1[x], occ2[y]
    else:
        block = {x, *inside_second}
        y = min(block, key=lambda e: occ1[e])
        lo, hi = occ1[y], occ2[x]
    assert hi - lo <= 2 * r
    before = {e for e in elems if occ1[e] < lo and occ2[e] < lo}
    after = {e for e in elems if occ1[e] > hi and occ2[e] > hi}
    kept = set(block)
    if before:
        kept |= reference_prune_pair([(e, c) for e, c in pairs[:lo] if e in before])
    if after:
        kept |= reference_prune_pair([(e, c) for e, c in pairs[hi + 1:] if e in after])
    return kept


def reference_prune(S: ReadSequence) -> tuple:
    regular = mono = reference_per_read_monotone(S)
    for i, j in itertools.combinations(range(1, S.k + 1), 2):
        regular = reference_prune_pair([(e, 1 if c == i else 2)
                                        for e, c in S.entries if c in (i, j) and e in regular])
    regular = frozenset(regular)
    kept = [(e, c) for e, c in S.entries if e in regular]
    if None in map(_direction, _reads_of(kept, S.k)) or not _check_interleaving(kept, S.k)[0]:
        raise RuntimeError("pruned subset failed its structural checks")
    return mono, regular


def reference_choose_subset(seq: ReadSequence) -> tuple:
    mono = reference_per_read_monotone(seq)
    s1 = seq.restrict(mono)
    if not s1.is_per_read_monotone():
        raise SequenceError("input sequence is not per-read-monotone")
    regular = reference_prune(s1)[1]
    s2 = s1.restrict(regular)
    ok, _ = is_regularly_interleaving(s2)
    if not ok or not s2.is_per_read_monotone():
        raise RuntimeError("pruned subset failed its structural checks")
    subset = tuple(sorted(s1.labels[e] for e in regular))
    k = max(seq.k, 1)
    return subset, seq.n ** (1.0 / 2 ** (k - 1)) / 3 ** (k * k)


def reference_two_regular_blocks(pairs) -> tuple | None:
    pos = 0
    m = len(pairs)
    blocks = []
    while pos < m:
        if pairs[pos][1] != 1:
            return None
        block = []
        while pos < m and pairs[pos][1] == 1:
            block.append(pairs[pos][0])
            pos += 1
        bset = set(block)
        chunk = pairs[pos:pos + len(block)]
        if len(chunk) != len(block):
            return None
        if any(c != 2 or e not in bset for e, c in chunk):
            return None
        if {e for e, _ in chunk} != bset:
            return None
        pos += len(block)
        blocks.append(tuple(sorted(bset)))
    return tuple(blocks)


def reference_repack(layout: Layout, terms: dict, other: Layout) -> dict:
    if layout.widths == other.widths:
        return terms
    moves = []          # [bits, shift] per block, low block first
    for v in itertools.compress(range(len(layout.widths) - 1, -1, -1),
                                reversed(layout.widths)):
        bits = ((1 << layout.widths[v]) - 1) << layout.offsets[v]
        shift = other.offsets[v] - layout.offsets[v]
        if moves and moves[-1][1] == shift:
            moves[-1][0] |= bits
        else:
            moves.append([bits, shift])
    if len(moves) == 1:
        (block, shift), = moves
        return terms if not shift else {(k & block) << shift: c for k, c in terms.items()}
    return {sum([(k & block) << shift for block, shift in moves]): c
            for k, c in terms.items()}


def reference_reconstruct(vals, starts: list, length: int, increasing: bool) -> list:
    out = []
    prev = None
    need = length
    for i, v in enumerate(vals):
        if starts[i] != need:
            continue
        if prev is not None and ((v <= prev) if increasing else (v >= prev)):
            continue
        out.append(v)
        prev = v
        need -= 1
        if need == 0:
            break
    return out


def _reference_nonzero(abp: ObliviousAbp, rng: random.Random, generator: str,
                       count, path) -> bool:
    if not abp.read_order():
        return abp.evaluate([0] * abp.num_vars) != 0
    if abp.evaluate([abp.field.random(rng) for _ in range(abp.num_vars)]) != 0:
        return True
    try:
        rest = abp.expand(pit.DEFAULT_FASTPATH_TERMS)
    except GuardExceeded:
        rest = reference_read_k_pit(abp, generator, rng.getrandbits(32), count, path)
    return not rest.is_zero


def reference_read_k_pit(abp: ObliviousAbp, generator: str = "grid", seed: int = 0,
                         count=None, path=None) -> PitVerdict:
    k, missing = _missing_reads(abp)
    work = _pad(abp, missing)
    rng = random.Random(seed)
    assigned = {}
    iterations = []
    while work.read_order():
        subset, floor = reference_choose_subset(ReadSequence.from_order(work.read_order()))
        _, points = pit._round_points(work, subset, k, generator, seed + len(iterations),
                                      count, path)
        points = list(points)
        chosen = None
        tried = 0
        for pt in points:
            tried += 1
            candidate = work.restrict(dict(zip(subset, pt)))
            if _reference_nonzero(candidate, rng, generator, count, path):
                chosen = pt
                break
        iterations.append(IterationRecord(subset, floor, len(points), tried, chosen))
        if chosen is None:
            return PitVerdict(True, None, iterations, generator, abp.num_vars, k)
        assigned.update(zip(subset, chosen))
        work = candidate
    if work.evaluate([0] * work.num_vars) == 0:
        return PitVerdict(True, None, iterations, generator, abp.num_vars, k)
    witness = tuple(assigned.get(v, 0) for v in range(abp.num_vars))
    return PitVerdict(False, witness, iterations, generator, abp.num_vars, k)


def assert_canonical(f: SparsePoly) -> None:
    assert SparsePoly(f.field, f.num_vars, dict(f.terms)) == f
    assert all(type(k) is tuple for k in f.terms)


@st.composite
def programs(draw, primes, max_vars=4, max_layers=10, max_width=3, max_degree=3):
    """Random oblivious programs, mostly reading layers with some constant,
    identity-padding and all-zero ones; ``num_vars`` may be 0."""
    field = PrimeField(draw(st.sampled_from(primes)))
    n = draw(st.integers(0, max_vars))
    num_layers = draw(st.integers(0, max_layers))
    kinds = ("read",) * 6 + ("constant", "padding", "zero") if n else ("constant", "zero")
    layers = []
    w_in = 1
    for idx in range(num_layers):
        last = idx == num_layers - 1
        kind = draw(st.sampled_from(kinds))
        if kind == "padding" and (w_in == 1 or not last):
            var = draw(st.integers(0, n - 1))
            layers.append(UniMatrix.identity(field, w_in, var=var, padding=True))
            continue
        var = None if kind == "constant" or n == 0 else draw(st.integers(0, n - 1))
        w_out = 1 if last else draw(st.integers(1, max_width))
        size = 1 if var is None else max_degree + 1
        coeffs = st.lists(st.integers(1, field.p - 1) | st.just(0), min_size=1, max_size=size)
        if kind == "zero":
            coeffs = st.just(())
        rows = tuple(tuple(tuple(draw(coeffs)) for _ in range(w_out))
                     for _ in range(w_in))
        layers.append(UniMatrix(field, var, rows))
        w_in = w_out
    if w_in != 1:
        layers.append(UniMatrix(field, None, tuple(((1,),) for _ in range(w_in))))
    return ObliviousAbp(field, n, tuple(layers))


@st.composite
def poly_pairs(draw, num_vars=3, max_degree=3):
    field = PrimeField(draw(st.sampled_from((2, 101))))
    exps = st.tuples(*[st.integers(0, max_degree)] * num_vars)
    coeffs = st.integers(-2 * field.p, 2 * field.p)
    f, g = (SparsePoly(field, num_vars, draw(st.dictionaries(exps, coeffs, max_size=6)))
            for _ in range(2))
    return f, g


@st.composite
def packed_poly_cases(draw, max_vars=4):
    """A field and exponent-tuple maps on a shared arity for two polynomials
    of unrelated degree bounds.  An exponent is often the largest its bit
    field holds (1, 3, 7, 15), so sums and products fill fields to the top."""
    field = PrimeField(draw(st.sampled_from((2, 7, 101))))
    n = draw(st.integers(0, max_vars))
    maps = []
    for _ in range(2):
        caps = [draw(st.sampled_from((0, 1, 2, 3, 7, 15))) for _ in range(n)]
        exps = st.tuples(*(st.sampled_from(sorted({0, min(cap, 1), cap // 2, cap}))
                           for cap in caps))
        maps.append(draw(st.dictionaries(exps, st.integers(-field.p, 2 * field.p),
                                         max_size=7)))
    return field, n, maps


@st.composite
def repack_cases(draw, max_vars=5):
    """A layout, keys packed in it, and a layout whose every bound is at
    least as large, so it holds every exponent and no field moves down.
    Bounds are often 0 (a field of no bits) and often grow by 0, so the
    fields that move make one block or several."""
    n = draw(st.integers(0, max_vars))
    bounds = draw(st.lists(st.sampled_from((0, 0, 1, 2, 3, 7)), min_size=n, max_size=n))
    grow = draw(st.lists(st.sampled_from((0, 0, 0, 1, 4, 8)), min_size=n, max_size=n))
    source = Layout(bounds)
    exps = st.tuples(*(st.integers(0, (1 << w) - 1) for w in source.widths))
    keys = draw(st.lists(exps, max_size=6, unique=True))
    terms = {source.pack(e): draw(st.integers(1, 100)) for e in keys}
    return source, terms, Layout(b + g for b, g in zip(bounds, grow))


@st.composite
def partial_assignments(draw, abp: ObliviousAbp):
    """A random subset of the program's variables, each fixed to a value that
    may lie outside [0, p)."""
    p = abp.field.p
    chosen = draw(st.lists(st.booleans(), min_size=abp.num_vars, max_size=abp.num_vars))
    return {v: draw(st.integers(-p, 2 * p)) for v, keep in enumerate(chosen) if keep}


@st.composite
def synthesis_inputs(draw, max_vars=4, max_degree=3):
    """A polynomial with individual degree <= max_degree over p in {5, 7, 101}
    and a variable order.  Most polynomials keep their total degree below p
    (so synthesis applies); the rest exercise the refusal."""
    field = PrimeField(draw(st.sampled_from((5, 7, 101))))
    n = draw(st.integers(0, max_vars))
    exps = st.tuples(*[st.integers(0, max_degree)] * n)
    terms = draw(st.dictionaries(exps, st.integers(0, field.p - 1), max_size=6))
    if draw(st.integers(0, 4)):
        terms = {e: c for e, c in terms.items() if sum(e) < field.p}
    order = draw(st.permutations(range(n)))
    return SparsePoly(field, n, terms), tuple(order)


@st.composite
def pd_cases(draw, max_vars=5, max_degree=3):
    """A polynomial over p in {2, 5, 101} and a split of its variables into
    S, T and the rest (R).  S or T is empty one time in four each; R's
    variables keep their exponents, so some cases must be refused."""
    field = PrimeField(draw(st.sampled_from((2, 5, 101))))
    n = draw(st.integers(0, max_vars))
    exps = st.tuples(*[st.integers(0, max_degree)] * n)
    f = SparsePoly(field, n, draw(st.dictionaries(exps, st.integers(1, field.p - 1),
                                                  max_size=12)))
    part = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    for emptied in (0, 1):
        if not draw(st.integers(0, 3)):
            part = [2 if x == emptied else x for x in part]
    S, T, R = ([v for v in range(n) if part[v] == k] for k in range(3))
    return f, draw(st.permutations(S)), draw(st.permutations(T)), R


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=6)
DOCUMENT_KEYS = st.sampled_from(["field_prime", "num_vars", "layers", "var",
                                 "matrix", "padding"]) | st.text(max_size=3)


@st.composite
def pit_cases(draw):
    """A program with a generator: grid, external (a file of random points
    sized for the first round) or random with a small count.  The program is
    a read-k corpus program over p in {2, 3, 5, 7, 101} and k in {1, 2, 3},
    made zero (cancelling lanes, a zero layer or crossed lanes) three times in
    four, or (one time in four) one from ``programs()``."""
    field = PrimeField(draw(st.sampled_from((2, 3, 5, 7, 101))))
    k = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.integers(0, 3)):
        zero_kind = rng.choice((None, "cancel", "zero_layer", "crossed"))
        reads = 2 if zero_kind == "crossed" else k      # reads of x_v with degree > 0
        abp = corpus_program(rng, field, rng.randint(1, 6), k, rng.randint(1, 3),
                             max(1, min(2, (field.p - 1) // reads)), zero_kind)
    else:
        abp = draw(programs(primes=(field.p,), max_degree=2))
    if draw(st.booleans()):
        # Layers that vanish at 0 make the first grid points miss, so rounds
        # go on to later points, and to substitution once expanded.
        abp = ObliviousAbp(field, abp.num_vars, tuple(
            UniMatrix(field, layer.var, tuple(tuple((0,) + e[1:] for e in row)
                                              for row in layer.entries))
            if layer.var is not None and not layer.padding and rng.random() < 0.5
            else layer for layer in abp.layers))
    generator = draw(st.sampled_from(("grid", "external", "random")))
    count = rng.randint(1, 12) if generator == "random" else None
    points = []
    reads = padded_reads(abp)
    if generator == "external" and reads:
        arity = len(reference_choose_subset(ReadSequence.from_order(reads))[0])
        points = [[rng.randrange(field.p) for _ in range(arity)]
                  for _ in range(rng.randint(1, 8))]
    return abp, generator, count, points


@st.composite
def read_orders(draw):
    """A read-k order over n <= 30 variables with k in 0..4, the variable ids
    shuffled: a uniformly shuffled order, or (one time in three) a random
    per-read-monotone one."""
    n = draw(st.integers(0, 30))
    k = draw(st.integers(0, 4))
    ids = draw(st.permutations(range(n)))
    if k and not draw(st.integers(0, 2)):
        seq = random_per_read_monotone_sequence(random.Random(draw(st.integers(0, 2 ** 32))),
                                                n, k)
        return ReadSequence.from_order([ids[e] for e, _ in seq.entries])
    return ReadSequence.from_order(draw(st.permutations([v for v in ids for _ in range(k)])))


def _paths(value, path=()):
    """Every position in a JSON tree, as the key path from the root."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def program_documents(draw):
    """Text of a valid program document after up to three random edits
    (replace, delete or insert a value anywhere), sometimes truncated."""
    doc = to_json_obj(draw(programs(primes=(2, 7, 101), max_vars=3, max_layers=4)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "replace":
            parent[key] = draw(JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(DOCUMENT_KEYS)] = draw(JSON_VALUES)
        else:
            parent.insert(key, draw(JSON_VALUES))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


class TestProgramJsonFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(program_documents())
    def test_round_trip_or_value_error(self, text):
        try:
            program = parse_text(text)
        except ValueError:
            return
        canonical = to_canonical_text(program)
        again = parse_text(canonical)
        assert again == program
        assert to_canonical_text(again) == canonical


class TestExpandMatchesReference:
    @PROPERTY_SETTINGS
    @given(programs(primes=(2, 101)))
    def test_equal_to_reference(self, abp):
        fast = abp.expand()
        assert fast == reference_expand(abp)
        assert_canonical(fast)

    def test_no_layers_is_one(self):
        field = PrimeField(2)
        for n in (0, 2):
            one = ObliviousAbp(field, n, ()).expand()
            assert one == SparsePoly.const(field, n, 1)


class TestPadMatchesValidatedBuild:
    @PROPERTY_SETTINGS
    @given(programs(primes=(2, 7, 101)))
    def test_padding_equals_validated_build(self, abp):
        padded = _pad(abp, _missing_reads(abp)[1])
        assert ObliviousAbp(abp.field, abp.num_vars, padded.layers) == padded
        assert padded.layers[:len(abp.layers)] == abp.layers
        for layer in padded.layers[len(abp.layers):]:
            want = UniMatrix.identity(abp.field, 1, var=layer.var)
            assert layer == want
            assert (layer.degree, layer.support) == (want.degree, want.support)


@st.composite
def capped_cases(draw):
    """A program from ``programs()`` or a read-k corpus program (zero by
    cancelling or crossed lanes one time in three each), with a term guard
    of 1 to 256."""
    if draw(st.booleans()):
        abp = draw(programs(primes=(2, 7, 101)))
    else:
        field = PrimeField(draw(st.sampled_from((7, 101))))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        abp = corpus_program(rng, field, rng.randint(1, 6), rng.randint(1, 3),
                             rng.randint(1, 3), 2, rng.choice((None, "cancel", "crossed")))
    return abp, draw(st.integers(1, 256))


@st.composite
def sparse_programs(draw):
    """A program from ``programs()`` or a read-k corpus program zero by
    cancelling lanes, with each entry outside identity-padding layers zeroed
    at a drawn rate."""
    if draw(st.booleans()):
        abp = draw(programs(primes=(2, 7, 101)))
    else:
        field = PrimeField(draw(st.sampled_from((7, 101))))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        abp = random_read_k_abp(rng, field, rng.randint(1, 6), rng.randint(1, 3),
                                rng.randint(1, 3), max_entry_degree=2, term_budget=5000,
                                zero_kind="cancel")
    rate = draw(st.sampled_from((0.0, 0.2, 0.5, 0.8)))
    return zero_entries(abp, random.Random(draw(st.integers(0, 2 ** 32))), rate)


def zero_entries(abp: ObliviousAbp, rng: random.Random, rate: float) -> ObliviousAbp:
    """The program with each entry outside identity-padding layers zeroed at ``rate``."""
    return ObliviousAbp(abp.field, abp.num_vars, tuple(
        layer if layer.padding else
        UniMatrix(abp.field, layer.var, tuple(tuple(() if rng.random() < rate else e
                                                    for e in row)
                                              for row in layer.entries))
        for layer in abp.layers))


@st.composite
def relaxation_cases(draw):
    """Programs whose read-once relaxation expands quickly: up to 6 layers of
    degree 2 from ``programs()``, or cancelling or crossed lanes over up to 3
    variables read up to twice, each entry zeroed at a drawn rate."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        abp = draw(programs(primes=(2, 7, 101), max_layers=6, max_degree=2))
    else:
        abp = corpus_program(rng, PrimeField(draw(st.sampled_from((7, 101)))),
                             rng.randint(1, 3), 2, 1, 2, rng.choice(("cancel", "crossed")))
    return zero_entries(abp, rng, draw(st.sampled_from((0.0, 0.0, 0.2, 0.5))))


class TestReachability:
    def test_equal_to_path_enumeration_and_zero_when_unreached(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(sparse_programs())
        def check(abp):
            assert abp.reaches_sink == reference_reaches_sink(abp)
            if abp.reaches_sink:
                seen["path"] += 1
            else:
                assert reference_expand(abp).is_zero
                seen["no path" if all(any(map(any, layer.entries)) for layer in abp.layers)
                     else "zero layer"] += 1

        check()
        assert min(seen["path"], seen["no path"], seen["zero layer"]) > 0


class TestRelaxation:
    def test_equal_to_relaxed_expansion_and_zero_when_fired(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(relaxation_cases())
        def check(abp):
            assert abp.relaxation_zero == reference_expand(relaxed(abp)).is_zero
            zero = reference_expand(abp).is_zero
            if abp.relaxation_zero:
                assert zero
                seen["relaxation zero with a path" if abp.reaches_sink else "no path"] += 1
            else:
                assert abp.reaches_sink
                seen["zero the relaxation misses" if zero else "nonzero"] += 1

        check()
        assert min(seen["no path"], seen["relaxation zero with a path"],
                   seen["zero the relaxation misses"]) > 0

    def test_crossed_lanes(self):
        """``crossed_lanes``' example: x0*x1 - x0*x1, relaxed y1*y2 - y3*y4."""
        field = PrimeField(101)
        x, one = (0, 1), (1,)
        abp = ObliviousAbp(field, 2, (
            UniMatrix(field, 0, ((x, one),)),
            UniMatrix(field, 1, ((x, ()), ((), one))),
            UniMatrix(field, 0, ((one, ()), ((), x))),
            UniMatrix(field, 1, ((one, ()), ((), x))),
            UniMatrix(field, None, (((1,),), ((100,),)))))
        assert abp.reaches_sink and not abp.relaxation_zero
        assert abp.expand().is_zero
        assert len(reference_expand(relaxed(abp)).terms) == 2


class TestEvaluateMatchesReference:
    def test_equal_to_grid_loop(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(st.data(), sparse_programs())
        def check(data, abp):
            p = abp.field.p
            point = data.draw(st.lists(st.integers(-3 * p, 3 * p) | st.integers(),
                                       min_size=abp.num_vars, max_size=abp.num_vars))
            assert abp.evaluate(point) == reference_evaluate(abp, point)
            seen["constant layer"] += any(layer.var is None for layer in abp.layers)
            seen["padding layer"] += any(layer.padding for layer in abp.layers)
            seen["negative"] += any(x < 0 for x in point)
            seen["at least p"] += any(x >= p for x in point)

        check()
        assert min(seen["constant layer"], seen["padding layer"], seen["negative"],
                   seen["at least p"]) > 0


class TestCappedExpand:
    """A capped expansion is exact or refused: it returns exactly
    ``expand()`` or raises ``GuardExceeded``, and never raises when the guard
    covers the estimate, since every reduced term map holds distinct
    monomials of the degree box.  Crossed lanes keep a refused zero whose
    relaxation was checked."""

    def test_exact_or_refused(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(capped_cases())
        def check(case):
            abp, guard = case
            try:
                capped = abp.expand(guard)
            except GuardExceeded:
                assert guard < abp.estimated_terms()
                seen["refused zero" if abp.expand().is_zero else "refused"] += 1
                # the relaxation was looked at and missed the zero
                seen["refused zero past the relaxation"] += (
                    abp.expand().is_zero
                    and abp.estimated_terms() > len(abp.layers) * abp.width ** 2)
            else:
                assert capped == abp.expand()
                seen["decided"] += 1

        check()
        assert min(seen["refused zero"], seen["refused zero past the relaxation"],
                   seen["refused"], seen["decided"]) > 0


EXPAND_GUARDS = (DEFAULT_EXPAND_GUARD, 1, 2, 3, 5, 8, 16, 50, 256, 4096)


@st.composite
def packed_cases(draw):
    """A program from ``programs()`` or a read-k corpus program over p in
    {7, 101}, zero by cancelling lanes, by a zero layer or by crossed lanes
    one time in four each."""
    if draw(st.booleans()):
        return draw(programs(primes=(2, 7, 101)))
    field = PrimeField(draw(st.sampled_from((7, 101))))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return corpus_program(rng, field, rng.randint(1, 6), rng.randint(1, 3),
                          rng.randint(1, 3), 2,
                          rng.choice((None, "cancel", "zero_layer", "crossed")))


def wide_program(n: int) -> ObliviousAbp:
    """Width-2 program over n variables: one lane multiplies 2*x_v^3 over
    every v, the other (1 + x_v) over the first three, so the result has 9
    terms and its packed keys span 2*n bits."""
    field = PrimeField(101)
    layers = [UniMatrix(field, None, (((1,), (1,)),))]
    for v in range(n):
        layers.append(UniMatrix(field, v, (((0, 0, 0, 2), ()),
                                           ((), (1, 1) if v < 3 else (1,)))))
    layers.append(UniMatrix(field, None, (((1,),), ((1,),))))
    return ObliviousAbp(field, n, tuple(layers))


def no_variable_programs() -> tuple:
    """Programs over zero variables: no layers (the constant 1), and two
    constant layers whose product is 3*2 + 4*5 = 5 over F_7."""
    field = PrimeField(7)
    return tuple(ObliviousAbp(field, 0, layers) for layers in (
        (), (UniMatrix.constant(field, ((3, 4),)), UniMatrix.constant(field, ((2,), (5,))))))


def unread_variable_program() -> ObliviousAbp:
    """x_1 is read by no layer and x_2 only at degree 0, so both get
    zero-bit fields in ``expand``'s packed keys."""
    field = PrimeField(101)
    return ObliviousAbp(field, 4, (UniMatrix(field, 0, (((1, 2), (0, 0, 3)),)),
                                   UniMatrix(field, None, (((4,), (5,)), ((6,), (7,)))),
                                   UniMatrix(field, 2, (((9,), ()), ((), (8,)))),
                                   UniMatrix(field, 3, (((0, 1),), ((1, 0, 0, 1),)))))


class TestPackedExpandMatchesTupleLoop:
    """``expand`` keys its term maps by packed ints; the tuple-keyed loop
    must give the same terms, and refuse at the same guards with the same
    text.  Where the estimate passes the guard, ``expand`` multiplies in
    order, so the terms come in the same insertion order too; elsewhere it
    may split the product at a cut, and only the map must match."""

    @staticmethod
    def check(abp: ObliviousAbp, guards=EXPAND_GUARDS) -> Counter:
        seen = Counter()
        for guard in guards:
            fast, ref = (refusal_or_result(expand, abp, guard)
                         for expand in (ObliviousAbp.expand, reference_tuple_expand))
            if type(fast) is str:
                assert fast == ref
                seen["refused"] += 1
            else:
                if abp.estimated_terms() > guard:
                    assert list(fast.terms.items()) == list(ref.terms.items())
                else:
                    assert fast.terms == ref.terms
                assert_canonical(fast)
                seen["zero" if fast.is_zero else "nonzero"] += 1
        return seen

    @staticmethod
    def record_cuts(monkeypatch) -> list:
        """Records every cut ``expand`` chooses, in a list it returns."""
        cuts, cheapest_cut = [], abp_module._cheapest_cut

        def recorded(*args):
            cuts.append(cheapest_cut(*args))
            return cuts[-1]
        monkeypatch.setattr(abp_module, "_cheapest_cut", recorded)
        return cuts

    def test_same_terms_in_the_same_order(self, monkeypatch):
        seen = Counter()
        cuts = self.record_cuts(monkeypatch)

        @PROPERTY_SETTINGS
        @given(packed_cases())
        @example(no_variable_programs()[1])     # no bit fields to unpack
        @example(unread_variable_program())     # zero-width bit fields
        def check(abp):
            cuts.clear()
            seen.update(self.check(abp))
            L = len(abp.layers)
            seen.update("cut at 0" if m == 0 else "cut at L" if m == L else "cut inside"
                        for m in cuts)
            if cuts and cuts[0] < L:    # the default guard is the largest: it splits too
                assert abp.expand() == reference_expand(abp)

        check()
        assert min(seen["refused"], seen["zero"], seen["nonzero"]) > 0
        assert min(seen["cut at 0"], seen["cut inside"], seen["cut at L"]) > 0

    def test_split_at_a_guard_equal_to_the_estimate(self, monkeypatch):
        # the estimate is within the guard, so no partial product can pass it
        cuts = self.record_cuts(monkeypatch)
        abp = wide_program(5)
        est = abp.estimated_terms()
        f = abp.expand(est)
        assert cuts and 0 < cuts[0] < len(abp.layers)
        assert f == reference_expand(abp)

    def test_no_variables(self):
        # no columns to zip: the one packed key must still become ()
        for abp, c in zip(no_variable_programs(), (1, 5)):
            assert self.check(abp) == Counter(nonzero=len(EXPAND_GUARDS))
            assert abp.expand().terms == {(): c}

    def test_unread_and_degree_zero_variables(self):
        # every key holds x_0's and x_3's exponents alone
        abp = unread_variable_program()
        assert abp.individual_degrees() == [2, 0, 0, 3]
        self.check(abp)
        f = abp.expand()
        assert f == reference_expand(abp)
        assert {e[1] for e in f.terms} == {e[2] for e in f.terms} == {0}

    def test_pn_realization(self):
        # P_5 outgrows these guards; fixed at its first two rounds' accepted
        # points it has 642 terms
        p5 = gen_pn(5, with_poly=False).realization
        assert self.check(p5, (1, 50, 4096)) == Counter(refused=3)
        assignment = {}
        for rec in read_k_pit(p5).iterations[:2]:
            assignment.update(zip(rec.subset, rec.chosen))
        fixed = p5.restrict(assignment)
        assert self.check(fixed, (DEFAULT_EXPAND_GUARD, 50, 4096)) == Counter(
            refused=1, nonzero=2)
        assert len(fixed.expand().terms) == 642

    def test_keys_wider_than_64_bits(self):
        # the estimate 4^40 is over the guard, but no partial product is
        abp = wide_program(40)
        assert abp.estimated_terms() == 4 ** 40
        assert sum(d.bit_length() for d in abp.individual_degrees()) == 80
        assert self.check(abp) == Counter(refused=5, nonzero=5)
        f = abp.expand()
        assert len(f.terms) == 9
        assert f.terms[(3,) * 40] == pow(2, 40, 101)
        assert f == reference_expand(abp)


class TestRestrictMatchesReference:
    @PROPERTY_SETTINGS
    @given(st.data(), programs(primes=(2, 7, 101)))
    def test_equal_to_reference(self, data, abp):
        assignment = data.draw(partial_assignments(abp))
        restricted = abp.restrict(assignment)
        assert to_canonical_text(restricted) == \
            to_canonical_text(reference_restrict(abp, assignment))
        rebuilt = ObliviousAbp(abp.field, abp.num_vars, tuple(
            UniMatrix(layer.field, layer.var, layer.entries, layer.padding)
            for layer in restricted.layers))
        assert restricted == rebuilt
        for got, want in zip(restricted.layers, rebuilt.layers):
            assert (got.support, got.degree) == (want.support, want.degree)
        assert restricted.expand() == abp.expand().substitute(assignment)


    def test_lone_constant_layer_kept(self):
        """A run of fixed layers that is one constant layer keeps that layer;
        a longer run is folded."""
        field = PrimeField(7)
        first = UniMatrix(field, 0, (((1, 2), (0, 1)),))
        middle = UniMatrix(field, None, (((3,), (1,)), ((), (5,))))
        read = UniMatrix(field, 1, (((1, 1),), ((2,),)))
        last = UniMatrix(field, None, (((4,),),))
        for layers, assignment, kept in [
                ((first, middle, read, last), {}, (1, 3)),
                ((first, middle, read, last), {0: 2}, (2,)),
                ((first, middle, read, last), {1: 4}, ())]:
            abp = ObliviousAbp(field, 2, layers)
            restricted = abp.restrict(assignment)
            want = reference_restrict(abp, assignment)
            assert to_canonical_text(restricted) == to_canonical_text(want)
            assert restricted == want
            assert tuple(i for i, layer in enumerate(restricted.layers)
                         if any(layer is old for old in layers if old.var is None)) == kept


class TestChooseSubsetMatchesReference:
    """Pruning the raw read order gives the subset and floor of the old
    pipeline, with pairs that already interleave regularly skipped and the
    others pruned."""

    @staticmethod
    def check(seq: ReadSequence, seen: Counter) -> None:
        got = pit._choose_subset([seq.labels[e] for e, _ in seq.entries])
        assert got == reference_choose_subset(seq)
        seen[(seq.k, min(len(got[0]), 3))] += 1

    @staticmethod
    def count_pair_steps(monkeypatch, seen: Counter) -> None:
        """Counts into ``seen`` the pair loop's skipped pairs (walks that pass
        before the closing check) and its pruned pairs."""
        walk, close, prune_pair = (sequences._pair_interleaves,
                                   sequences._forced_blocks_hold, sequences._prune_pair)
        closing = []

        def counted_walk(*args):
            ok = walk(*args)
            seen["skipped pair"] += ok and not closing
            return ok

        def counted_close(*args):
            closing.append(True)
            try:
                return close(*args)
            finally:
                closing.pop()

        def counted_prune_pair(order):
            seen["pruned pair"] += 1
            return prune_pair(order)
        monkeypatch.setattr(sequences, "_pair_interleaves", counted_walk)
        monkeypatch.setattr(sequences, "_forced_blocks_hold", counted_close)
        monkeypatch.setattr(sequences, "_prune_pair", counted_prune_pair)

    def test_read_k_orders(self, monkeypatch):
        seen, steps = Counter(), Counter()
        self.count_pair_steps(monkeypatch, steps)

        @PROPERTY_SETTINGS
        @given(read_orders())
        def check(seq):
            self.check(seq, seen)

        check()
        assert {k for k, _ in seen} == {0, 1, 2, 3, 4}
        assert all(seen[(k, 3)] for k in (1, 2, 3, 4))
        assert steps["skipped pair"] > 0 and steps["pruned pair"] > 0

    def test_padded_programs(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(programs(primes=(2, 101), max_vars=6))
        def check(abp):
            reads = padded_reads(abp)
            self.check(ReadSequence.from_order(reads), seen)
            seen["padded"] += len(reads) > len(abp.read_order())

        check()
        assert seen["padded"] > 0


class TestPruneMatchesReference:
    """The one-pass ``prune`` keeps the subsets of the old one, and refuses
    where it refused.  Relabeling a sequence's elements through the validating
    constructor breaks the canonical first read, so the pair pruning meets
    non-monotone reads and remainders of every shape."""

    @staticmethod
    def outcome(fn, seq):
        try:
            return fn(seq)
        except (SequenceError, RuntimeError) as exc:
            return type(exc)

    def test_same_subsets_or_refusal(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(read_orders(), st.randoms(use_true_random=False), st.booleans())
        def check(seq, rng, relabel):
            if relabel:
                perm = rng.sample(range(seq.n), seq.n)
                seq = ReadSequence(seq.n, seq.k, [(perm[e], c) for e, c in seq.entries],
                                   seq.labels)
            got = self.outcome(prune, seq)
            assert got == self.outcome(reference_prune, seq)
            seen[got if type(got) is type else "pruned"] += 1
            seen["kept below mono"] += type(got) is tuple and got[1] < got[0]

        check()
        assert min(seen["pruned"], seen["kept below mono"], seen[SequenceError],
                   seen[RuntimeError]) > 0


class TestForcedBlockWalkMatchesProjections:
    """``prune``'s closing check, one walk per same-direction pair over the
    position table, passes exactly the subsets whose entries the projections'
    checks pass: monotone reads (``_reads_of``, ``_direction``) and a block
    parse of every pair (``_check_interleaving``)."""

    def test_same_verdict_on_random_subsets(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(read_orders(), st.randoms(use_true_random=False), st.booleans(),
               st.floats(0.1, 1.0))
        def check(seq, rng, relabel, density):
            if relabel:
                perm = rng.sample(range(seq.n), seq.n)
                seq = ReadSequence(seq.n, seq.k, [(perm[e], c) for e, c in seq.entries],
                                   seq.labels)
            pos = [[0] * seq.n for _ in range(seq.k)]
            for t, (e, c) in enumerate(seq.entries):
                pos[c - 1][e] = t
            for _ in range(5):
                subset = sorted(e for e in range(seq.n) if rng.random() < density)
                kept = [(e, c) for e, c in seq.entries if e in subset]
                expected = (None not in map(_direction, _reads_of(kept, seq.k))
                            and _check_interleaving(kept, seq.k)[0])
                assert sequences._forced_blocks_hold(pos, subset) == expected
                seen[expected, len(subset) > 2
                     and "dec" in sequences._read_directions(pos, subset)] += 1

        check()
        assert min(seen.values()) > 0 and len(seen) == 4


class TestTrimmedSequenceHelpersMatchReference:
    """``_two_regular_blocks`` and ``_reconstruct`` without the branches that
    no valid input reaches give what they gave with them, on the read-pair
    projections and the reads of random read-k sequences, relabeled through
    the validating constructor or restricted to their pruned subset."""

    def test_same_blocks_and_chains(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(read_orders(), st.randoms(use_true_random=False), st.sampled_from(
            ("as drawn", "relabeled", "pruned")))
        def check(seq, rng, shape):
            if shape == "relabeled":
                perm = rng.sample(range(seq.n), seq.n)
                seq = ReadSequence(seq.n, seq.k, [(perm[e], c) for e, c in seq.entries],
                                   seq.labels)
            elif shape == "pruned" and seq.is_per_read_monotone():
                seq = seq.restrict(prune(seq)[1])
            for i, j in itertools.combinations(range(1, seq.k + 1), 2):
                pairs = [(e, 1 if c == i else 2) for e, c in seq.entries if c in (i, j)]
                got = sequences._two_regular_blocks(pairs)
                assert got == reference_two_regular_blocks(pairs)
                seen["blocks" if got else "not interleaving"] += 1
            for vals in seq._reads:
                rev = list(vals)[::-1]
                for increasing, starts in (
                        (True, sequences._lis_end_lengths([-v for v in rev])[::-1]),
                        (False, sequences._lis_end_lengths(rev)[::-1])):
                    length = max(starts, default=0)
                    assert (sequences._reconstruct(vals, starts, length)
                            == reference_reconstruct(vals, starts, length, increasing))
                    seen["chain of 3+"] += length >= 3

        check()
        assert min(seen["blocks"], seen["not interleaving"], seen["chain of 3+"]) > 0


class TestRepackMatchesReference:
    """Moving a key one field at a time gives the map that moving blocks of
    fields with one shift gave: the same keys, coefficients and order, and
    every key's exponents kept."""

    def test_same_map(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(repack_cases())
        def check(case):
            source, terms, target = case
            got = source.repack(terms, target)
            assert list(got.items()) == list(reference_repack(source, terms, target).items())
            assert list(map(target.unpack, got)) == list(map(source.unpack, terms))
            shifts = [to - off for w, off, to in
                      zip(source.widths, source.offsets, target.offsets) if w]
            blocks = sum(1 for a, b in zip([None] + shifts, shifts) if a != b)
            seen["same widths" if source.widths == target.widths
                 else "empty map" if not terms else min(blocks, 2)] += 1
            seen["zero-width field"] += 0 in source.widths and bool(terms)

        check()
        assert min(seen["same widths"], seen["empty map"], seen[1], seen[2],
                   seen["zero-width field"]) > 0


class TestSynthesisMatchesReference:
    @staticmethod
    def check(f: SparsePoly, order) -> None:
        try:
            want = reference_synthesize(f, order)
        except ValueError:
            with pytest.raises(ValueError, match="field too small"):
                roabp_synthesize(f, order)
            return
        got = roabp_synthesize(f, order)
        assert to_canonical_text(got.abp) == to_canonical_text(want.abp)
        assert got.width_profile == want.width_profile
        assert got.order == want.order

    @PROPERTY_SETTINGS
    @given(synthesis_inputs())
    def test_equal_to_reference(self, case):
        self.check(*case)

    @pytest.mark.parametrize("p", [5, 7, 101])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_zero_polynomial_and_no_variables(self, p, n):
        field = PrimeField(p)
        self.check(SparsePoly.zero(field, n), tuple(range(n)))
        self.check(SparsePoly.const(field, n, 3), tuple(reversed(range(n))))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("gen, n", [(gen_pn, 2), (gen_pn, 3), (gen_qn, 2),
                                        (gen_qn, 3), (gen_qn, 4), (gen_qn, 5)])
    def test_hard_families(self, gen, n, reverse):
        f = gen(n).polynomial
        order = tuple(range(f.num_vars))
        self.check(f, order[::-1] if reverse else order)


class TestPdRankMatchesReference:
    @staticmethod
    def outcome(fn, f, S, T):
        try:
            return fn(f, S, T)
        except ValueError as exc:
            return f"refused: {exc}"

    @PROPERTY_SETTINGS
    @given(pd_cases(), st.data())
    def test_same_rank_or_refusal(self, case, data):
        f, S, T, R = case
        assert self.outcome(pd_rank, f, S, T) == self.outcome(reference_pd_rank, f, S, T)
        g = f.substitute({r: data.draw(st.integers(-f.field.p, 2 * f.field.p)) for r in R})
        assert pd_rank(g, S, T) == reference_pd_rank(g, S, T)
        assert len(_pd_rows(g, S, T)) == len(reference_pd_rows(g, S, T))

    def test_cases_cover_every_shape(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(pd_cases())
        def check(case):
            f, S, T, R = case
            seen["S empty"] += not S
            seen["T empty"] += not T
            seen["R substituted"] += bool(R) and not f.is_zero
            seen["refused"] += str(self.outcome(pd_rank, f, S, T)).startswith("refused")

        check()
        assert min(seen[k] for k in ("S empty", "T empty", "R substituted", "refused")) > 0

    def test_first_offending_variable_named(self):
        field = PrimeField(101)
        f = SparsePoly(field, 5, {(1, 0, 0, 0, 0): 1, (0, 0, 2, 0, 1): 3,
                                  (0, 0, 0, 1, 0): 1})
        for S, T, v in (([0], [1], 2), ([], [0, 1], 2), ([1, 0], [], 2), ([], [], 0)):
            want = self.outcome(reference_pd_rank, f, S, T)
            assert want == f"refused: polynomial mentions variable {v} outside S and T"
            assert self.outcome(pd_rank, f, S, T) == want

    def test_empty_sides(self):
        field = PrimeField(101)
        for f in (SparsePoly.zero(field, 0), SparsePoly.const(field, 0, 7),
                  SparsePoly.zero(field, 2), SparsePoly.linear(field, 2, {0: 1, 1: 2}, 3)):
            for S, T in (([], list(range(f.num_vars))), (list(range(f.num_vars)), [])):
                assert pd_rank(f, S, T) == reference_pd_rank(f, S, T) == int(not f.is_zero)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pn_polynomial(self, n):
        blocks = [range(1, n + 1)] + [range(t + 1, n) for t in range(n - 1)]
        blocks += [(1, n), (n,), (), (n, 1, n)]
        for p in (2, 3, 101, 10007):
            field = PrimeField(p)
            for block in blocks:
                got = _pn_polynomial(field, n, block)
                want = reference_pn_polynomial(field, n, block)
                assert got == want
                if len(set(block)) == len(block):
                    assert list(got.packed.items()) == list(want.packed.items())
                    assert got.layout.bounds == want.layout.bounds
                if p == 101:        # slow on P_4's 54,730 terms, so over one field
                    assert_canonical(got)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_qn_polynomial(self, n):
        for p in (2, 3, 101, 10007):
            field = PrimeField(p)
            got, want = _qn_polynomial(field, n), reference_qn_polynomial(field, n)
            assert list(got.packed.items()) == list(want.packed.items())
            assert got.layout.bounds == want.layout.bounds


class TestTrustedResultsAreCanonical:
    @PROPERTY_SETTINGS
    @given(poly_pairs(), st.integers(-300, 300),
           st.dictionaries(st.integers(0, 2), st.integers(-300, 300), max_size=3))
    def test_arithmetic(self, pair, c, sub):
        f, g = pair
        for h in (f + g, f - g, -f, f * g, f.scale(c), f.substitute(sub)):
            assert_canonical(h)
        raw = {}
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                raw[e] = raw.get(e, 0) + c1 * c2
        assert f * g == SparsePoly(f.field, f.num_vars, raw)


class TestPackedPolyMatchesTupleReference:
    """Each ``SparsePoly`` operation on packed keys against
    ``ReferenceTuplePoly``: the same terms in the same order, the same text,
    degrees, values and coefficients, also where an exponent fills its field
    and where the operands' layouts differ."""

    @staticmethod
    def same(got: SparsePoly, want: ReferenceTuplePoly) -> None:
        assert list(got.terms.items()) == list(want.terms.items())
        assert str(got) == str(want)
        assert got.total_degree() == want.total_degree()
        assert got.individual_degrees() == want.individual_degrees()
        assert_canonical(got)

    @PROPERTY_SETTINGS
    @given(packed_poly_cases(), st.data())
    def test_operations(self, case, data):
        field, n, maps = case
        p = field.p
        f, g = (SparsePoly(field, n, m) for m in maps)
        rf, rg = (ReferenceTuplePoly(field, n, m) for m in maps)
        c = data.draw(st.integers(-2 * p, 2 * p))
        pairs = [(f, rf), (g, rg), (f * g, rf * rg), (g * f, rg * rf), (f + g, rf + rg),
                 (f - g, rf - rg), (-f, -rf), (f.scale(c), rf.scale(c)),
                 (f * f * g, rf * rf * rg), ((f + g) * (f - g), (rf + rg) * (rf - rg))]
        values = st.integers(-p, 2 * p)
        assignment = data.draw(st.dictionaries(st.integers(0, n - 1), values)) if n else {}
        point = data.draw(st.lists(values, min_size=n, max_size=n))
        probes = data.draw(st.lists(st.tuples(*[st.integers(0, 20)] * n), max_size=4))
        for got, want in pairs:
            self.same(got, want)
            self.same(got.substitute(assignment), want.substitute(assignment))
            assert got.evaluate(point) == want.evaluate(point)
            for exps in list(want.terms) + probes:
                assert got.coefficient(exps) == want.coefficient(exps)
        assert (f == g) == (rf == rg)
        assert (f + g) - g == f and f * g == g * f
        assert (f * SparsePoly.const(field, n, 1) == f) and (f - f).is_zero

    @PROPERTY_SETTINGS
    @given(packed_poly_cases())
    def test_keys_sort_like_exponent_tuples(self, case):
        field, n, maps = case
        f = SparsePoly(field, n, maps[0]) * SparsePoly(field, n, maps[1])
        assert [f.layout.unpack(k) for k in sorted(f.packed)] == sorted(f.terms)

    def test_field_maxima_do_not_carry(self):
        # x1^15 * x2^7 in fields of 4 and 3 bits: the square fills 5 and 4
        field = PrimeField(101)
        f = SparsePoly(field, 3, {(15, 7, 0): 1, (0, 7, 1): 2, (15, 0, 1): 3})
        assert f.layout.widths == (4, 3, 1)
        want = ReferenceTuplePoly(field, 3, f.terms)
        self.same(f * f, want * want)
        assert (f * f).layout.widths == (5, 4, 2)
        self.same(f * f * f + f, want * want * want + want)

    def test_equality_across_layouts(self):
        # a two-pass program and its read-once collapse expand in layouts of
        # their own degree bounds; x^2 * 1 + 1 * (x - x^2) = x puts one in a
        # 3-bit field and the other in a 1-bit field
        field = PrimeField(101)
        cancel = ObliviousAbp(field, 1, (UniMatrix(field, 0, (((0, 0, 1), (1,)),)),
                                         UniMatrix(field, 0, (((1,),), ((0, 1, 100),)))))
        programs = [cancel]
        rng = random.Random(2000)
        for _ in range(20):
            programs.append(random_k_pass_abp(rng, field, rng.randint(2, 6), 2,
                                              rng.randint(1, 3), entry_degree=1))
        for abp in programs:
            f, g = abp.expand(), k_pass_to_roabp(abp).abp.expand()
            assert f == g and g == f and f.terms == g.terms
            assert f != g + SparsePoly.const(field, f.num_vars, 1)
        f, g = cancel.expand(), k_pass_to_roabp(cancel).abp.expand()
        assert (f.layout.widths, g.layout.widths, str(f)) == ((3,), (1,), "x1")


class TestSolverVectorsShareOneLayout:
    """The vectors one ``LinearSolver`` is given are polynomials' own maps in
    one layout, by construction: restrictions of one polynomial (synthesis,
    the greedy basis) or expansions of one program's restrictions at the same
    variables (``eliminate_summand``)."""

    @staticmethod
    def layouts_per_solver(call) -> list:
        made, given_vectors = {}, {}
        trusted, try_add = SparsePoly._trusted.__func__, LinearSolver.try_add

        def record(cls, field, num_vars, packed, layout):
            poly = trusted(cls, field, num_vars, packed, layout)
            made[id(packed)] = poly     # kept alive, so no id is reused
            return poly

        def add(self, vec):
            given_vectors.setdefault(id(self), (self, []))[1].append(vec)
            return try_add(self, vec)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SparsePoly, "_trusted", classmethod(record))
            mp.setattr(LinearSolver, "try_add", add)
            for poly in call():
                made[id(poly.packed)] = poly
        return [{made[id(vec)].layout.widths for vec in vectors}
                for _, vectors in given_vectors.values()]

    @PROPERTY_SETTINGS
    @given(synthesis_inputs())
    def test_synthesis_and_greedy_basis(self, case):
        f, order = case
        if f.field.p <= f.total_degree() or f.is_zero or not f.num_vars:
            return
        rank = pd_rank(f, order[:1], order[1:])

        def synthesize():
            roabp_synthesize(f, order)
            return [f]

        def greedy_basis():
            _greedy_basis(f, order[:1], rank)
            return [f]
        for call in (synthesize, greedy_basis):
            for widths in self.layouts_per_solver(call):
                assert widths == {f.layout.widths}

    def test_eliminate_summand(self):
        rng = random.Random(9000)
        for _ in range(10):
            n = rng.randint(3, 6)
            parts = [random_roabp(rng, PrimeField(101), n, rng.randint(1, 3), entry_degree=1)
                     for _ in range(2)]
            t = rng.randint(1, 2)
            solvers = self.layouts_per_solver(lambda: eliminate_summand(parts, t) and [])
            assert len(solvers) == 1 and len(solvers[0]) == 1


class TestPivotOrderDoesNotMatter:
    @PROPERTY_SETTINGS
    @given(st.sampled_from((2, 7, 101)), st.lists(st.dictionaries(
        st.integers(0, 12), st.integers(-5, 200), max_size=5), max_size=8))
    def test_reversed_keys(self, p, vectors):
        # the same vectors with their column order reversed: the same
        # verdicts, ranks and coordinates
        field = PrimeField(p)
        solvers = [LinearSolver(field, track_coords=True) for _ in range(2)]
        flips = (lambda vec: vec, lambda vec: {-k: c for k, c in vec.items()})
        for vec in vectors:
            verdicts = {s.try_add(flip(vec)) for s, flip in zip(solvers, flips)}
            assert len(verdicts) == 1
        for vec in vectors:
            coords = [s.express(flip(vec)) for s, flip in zip(solvers, flips)]
            assert coords[0] == coords[1] is not None
        assert solvers[0].rank == solvers[1].rank


class TestInsertionOrderDoesNotMatter:
    """``expand``'s insertion order is not part of its result: every consumer
    gives the same answer on the polynomial with its term map reversed."""

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:
            return f"refused: {exc}"

    @PROPERTY_SETTINGS
    @given(programs(primes=(7, 101), max_layers=6), st.data())
    def test_reversed_term_map(self, abp, data):
        f = abp.expand()
        g = SparsePoly._trusted(f.field, f.num_vars, dict(reversed(f.packed.items())),
                                f.layout)
        n = f.num_vars
        part = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        S, T, R = ([v for v in range(n) if part[v] == k] for k in range(3))
        order = tuple(data.draw(st.permutations(range(n))))
        assignment = data.draw(partial_assignments(abp))
        assert str(g) == str(f)
        assert pd_rank(g, S, T + R) == pd_rank(f, S, T + R)
        dims = [self.outcome(eval_dim, h, S, T, R) for h in (f, g)]
        if type(dims[0]) is str:
            assert dims[0] == dims[1]
        else:
            assert (dims[0].dimension, dims[0].basis_assignments) == \
                (dims[1].dimension, dims[1].basis_assignments)
        synths = [self.outcome(roabp_synthesize, h, order) for h in (f, g)]
        if type(synths[0]) is str:
            assert synths[0] == synths[1]
        else:
            assert to_canonical_text(synths[0].abp) == to_canonical_text(synths[1].abp)
        assert g.substitute(assignment).packed == f.substitute(assignment).packed


class TestPitMatchesReference:
    """One limit per decision path: at 1 nearly every candidate recurses, at
    64 restrictions are expanded or substituted, at 4096 most rounds are
    decided by one expansion of the round's program."""

    @staticmethod
    def outcome(fn, case, path):
        abp, generator, count, _ = case
        try:
            v = fn(abp, generator, 7, count, path)
        except ValueError as exc:
            return "refused", str(exc)
        return v.is_zero, v.witness, v.iterations

    @pytest.mark.parametrize("limit", [1, 64, 4096])
    def test_same_verdicts_and_records(self, limit, tmp_path_factory):
        path = tmp_path_factory.mktemp("points") / "points.txt"
        seen = Counter()
        real_pit, real_expand, real_substitute = (
            pit.read_k_pit, ObliviousAbp.expand, SparsePoly.substitute)

        def recursion(*args, **kwargs):
            seen["recursions"] += 1
            return real_pit(*args, **kwargs)

        def expand(self, *args):
            seen["expands"] += 1
            return real_expand(self, *args)

        def substitute(self, assignment):
            seen["substitutions"] += 1
            return real_substitute(self, assignment)

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(pit_cases())
        def check(case):
            path.write_text("".join(" ".join(map(str, pt)) + "\n" for pt in case[3]))
            want = self.outcome(reference_read_k_pit, case, path)
            seen["expands"] = 0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pit, "read_k_pit", recursion)
                mp.setattr(ObliviousAbp, "expand", expand)
                mp.setattr(SparsePoly, "substitute", substitute)
                got = self.outcome(real_pit, case, path)
            assert got == want
            if got[0] is True and got[2] and got[2][-1].h_size > 1 and seen["expands"] == 1:
                seen["zero rounds by one expansion"] += 1

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pit, "DEFAULT_FASTPATH_TERMS", limit)
            check()
        if limit == 1:
            assert seen["recursions"] > 0
        else:
            assert seen["substitutions"] > 0
        if limit == 4096:
            assert seen["zero rounds by one expansion"] > 0


class TestIterationBoundMatchesReference:
    @staticmethod
    def root_or_error(fn, value, k):
        try:
            return fn(value, k)
        except ZeroDivisionError:
            return "k = 0"

    def test_iroot(self):
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(st.integers(0, 5000).flatmap(lambda bits: st.integers(0, 1 << bits)),
               st.sampled_from([0, 1]) | st.integers(2, 40))
        def check(value, k):
            assert (self.root_or_error(pit._iroot, value, k)
                    == self.root_or_error(reference_iroot, value, k))
            seen[k] += k < 2
            seen["past the float range"] += value > 1 << 1024

        check()
        assert min(seen[0], seen[1], seen["past the float range"]) > 0

    @pytest.mark.parametrize("k", range(2, 13))
    def test_iroot_where_the_float_seed_meets_newton(self, k):
        # roots near 2^50..2^54 and radicands either side of 2^(52k) and
        # 2^(53k), where the float seed gives way to Newton's descent;
        # hypothesis rarely draws these
        rng = random.Random(k)
        roots = [x + d for e in range(50, 55) for x in (1 << e, rng.getrandbits(e))
                 for d in (-1, 0, 1)]
        values = [x ** k + d for x in roots for d in (-1, 0, 1)]
        values += [(1 << e * k) + d for e in (52, 53) for d in (-1, 0, 1)]
        for value in values:
            assert pit._iroot(value, k) == reference_iroot(value, k)

    @pytest.mark.parametrize("offset", [-10 ** 6, -1, 1, 10 ** 6])
    def test_iroot_from_a_seed_that_is_off(self, monkeypatch, offset):
        # a poor libm costs steps, never exactness: a seed one off is settled
        # by the exact checks, one far off (negative, too) by Newton's descent
        # from it; 7^30 is past 2^52, where the seed is shifted into place
        for k in (2, 3, 7, 12):
            for x in (5, 10 ** 6, 3 ** 20, (1 << 51) + 3, 7 ** 30):
                for value in (x ** k - 1, x ** k, x ** k + 1):
                    want = reference_iroot(value, k)
                    monkeypatch.setattr(math, "exp", lambda y: float(want + offset))
                    assert pit._iroot(value, k) == want

    @staticmethod
    def decision(n: int, p: Fraction, r: int, bits: int, m=None):
        """``pit._decision`` on the check's two roots, or on a faked m."""
        a, b = p.numerator, p.denominator
        a_lo = pit._scaled_root(n, b - a, b, bits)
        if m is None:
            m = (n * r << bits) - pit._scaled_root(n, a, b, bits)
        return pit._decision(a_lo, m, a, b, r, bits)

    @staticmethod
    def reference_decision(ends: tuple, p: Fraction, r: int, bits: int):
        """True, False or None from the enclosure endpoints, compared as roots."""
        a_lo, a_hi, c_lo, c_hi = ends
        b = p.denominator
        rhs = (b - p.numerator) << bits         # (1-p)/r, times b * r * 2^bits
        if (a_lo - c_hi) * b * r >= rhs:
            return True
        if (a_hi - c_lo) * b * r < rhs:
            return False
        return None

    def test_decision_matches_the_enclosures(self):
        # every true inequality is decided True or left to a finer bits; only a
        # faked inner term n - n^p/r = n, with n^p enclosed in [0, 2^-bits]
        # (m = n*r*2^bits), reaches False
        seen = Counter()

        @PROPERTY_SETTINGS
        @given(st.integers(1, 10 ** 6), st.integers(1, 1000),
               st.sampled_from([Fraction(1, 1000), Fraction(999, 1000), Fraction(1, 3),
                                Fraction(2, 3), Fraction(7, 9),
                                *(Fraction(j, 10) for j in range(1, 10))]),
               st.sampled_from([1, 2, 4, 8, 32, 64]), st.booleans())
        @example(1, 1, Fraction(1, 2), 32, False)      # n - n^p/r = 0: the zero base
        @example(2, 1, Fraction(1, 2), 1, False)       # m = 1
        @example(2, 1, Fraction(999, 1000), 4, False)
        @example(2, 1, Fraction(9999, 10000), 12, False)
        def check(n, r, p, bits, fake):
            if fake:
                nfrac = Fraction(n)
                a_lo, a_hi = reference_pow_bounds(nfrac, 1 - p, bits)
                c_lo, _ = reference_pow_bounds(nfrac - Fraction(1, r << bits), 1 - p, bits)
                ends = tuple(int(x * (1 << bits)) for x in (a_lo, a_hi, c_lo, a_hi))
                got = self.decision(n, p, r, bits, m=n * r << bits)
            else:
                ends = reference_enclosures(n, p, r, bits)
                got = self.decision(n, p, r, bits)
            assert got is self.reference_decision(ends, p, r, bits)
            seen[got] += 1

        check()
        assert min(seen[True], seen[False], seen[None]) > 0

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
    def test_decision_at_every_small_input(self, p):
        # every a_lo and m in a small box, the inner term's roots taken by
        # reference_iroot: this reaches the inputs where a power equals its
        # bound exactly, which drawn n seldom do
        a, b = p.numerator, p.denominator
        c = b - a
        for r, bits, a_lo, m in itertools.product(range(1, 4), range(1, 4), range(12),
                                                  range(40)):
            c_lo = reference_iroot((max(m - 1, 0) ** c << bits * a) // r ** c, b)
            c_hi = reference_iroot((m ** c << bits * a) // r ** c, b) + 1 if m else 0
            want = self.reference_decision((a_lo, a_lo + 1, c_lo, c_hi), p, r, bits)
            assert pit._decision(a_lo, m, a, b, r, bits) is want

    @pytest.mark.parametrize("n, p", [(2, Fraction(999, 1000)), (7, Fraction(1, 3)),
                                      (50, Fraction(9, 10)), (9973, Fraction(3, 10)),
                                      (10 ** 6, Fraction(1, 2))])
    def test_decisions_across_r_share_their_roots(self, n, p):
        # the sweep's order, r = 1..9 for one (n, p), each check doubling from
        # bits = 1; the first pass fills the memo and the second reads it
        a, b = p.numerator, p.denominator
        precisions = (1, 2, 4, 8, 16, 32)
        want = {(r, bits): self.reference_decision(reference_enclosures(n, p, r, bits),
                                                   p, r, bits)
                for r in range(1, 10) for bits in precisions}
        pit._scaled_root.cache_clear()
        for _ in range(2):
            for r in range(1, 10):
                for bits in precisions:
                    assert self.decision(n, p, r, bits) is want[r, bits]
        # one miss per root and precision: the roots of n^p and n^(1-p)
        assert pit._scaled_root.cache_info().misses == len(precisions) * len({a, b - a})


class TestGridPitAgainstOracle:
    @PROPERTY_SETTINGS
    @given(programs(primes=(2, 3, 5, 7), max_degree=2))
    def test_exact_or_refused(self, abp):
        oracle = abp.expand()
        try:
            verdict = read_k_pit(abp, generator="grid")
        except ValueError as exc:
            assert "vanishes on all of F_p" in str(exc)
            assert max(abp.individual_degrees()) >= abp.field.p
            return
        assert verdict.is_zero == oracle.is_zero
        if not verdict.is_zero:
            assert abp.evaluate(verdict.witness) != 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_function_zero_polynomial_refused(p):
    """x^p - x vanishes on all of F_p but is a nonzero polynomial."""
    field = PrimeField(p)
    coeffs = [0] * (p + 1)
    coeffs[1], coeffs[p] = p - 1, 1
    abp = ObliviousAbp(field, 1, (UniMatrix(field, 0, ((tuple(coeffs),),)),))
    assert not abp.expand().is_zero
    with pytest.raises(ValueError):
        read_k_pit(abp)
