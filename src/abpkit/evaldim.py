"""Evaluation dimension and the width characterization of read-once oblivious
programs.

For a partition S, T of the variables (large field), the dimension of the
space spanned by all restrictions fixing S equals the rank of the coefficient
matrix whose rows are indexed by S-monomials and columns by T-monomials.
A polynomial has a read-once oblivious program of width w in a given order
exactly when this dimension is at most w at every prefix cut (Nisan).  The
synthesis below realizes that width in one pass over the order, each cut's
basis of restrictions built from the previous cut's alone.

Variables moved into the coefficient field (the R part) are handled by
substituting independent uniformly random values over a few trials and taking
the best rank, a with-high-probability lower bound on the generic rank.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .abp import DEFAULT_EXPAND_GUARD, ClassificationError, ObliviousAbp, validate
from .algebra import LinearSolver, SparsePoly, UniMatrix


@dataclass
class EvalDimReport:
    """Dimension of the restriction span for one (S, T; R) split, together
    with assignments to S whose restrictions realize a basis."""

    S: tuple
    T: tuple
    R: tuple
    dimension: int
    basis_assignments: tuple
    trial_dims: tuple = ()


@dataclass
class Roabp:
    """A read-once oblivious program together with its variable order and the
    realized width between consecutive variable layers."""

    abp: ObliviousAbp
    order: tuple
    width_profile: tuple

    def __post_init__(self) -> None:
        self.order = tuple(self.order)
        self.width_profile = tuple(self.width_profile)
        if self.abp.read_order() != list(self.order):
            raise ValueError("program does not read the declared order once each")

    @property
    def width(self) -> int:
        return self.abp.width


def _check_partition(num_vars: int, *parts) -> None:
    seen: set = set()
    for part in parts:
        for v in part:
            if not 0 <= v < num_vars:
                raise ValueError(f"variable {v} out of range")
            if v in seen:
                raise ValueError(f"variable {v} appears in two parts")
            seen.add(v)
    if seen != set(range(num_vars)):
        raise ValueError("S, T, R must partition all variables")


def _pd_rows(f: SparsePoly, S: Sequence[int], T: Sequence[int]) -> list:
    """Rows of the partial derivative matrix: one sparse vector per S-monomial
    of f over T-monomials, each keyed by its bits of f's packed keys; f must
    live on S union T."""
    lay = f.layout
    outside = sorted(set(range(f.num_vars)).difference(S, T))
    if stray := lay.fields(outside):
        for key in f.packed:
            if key & stray:
                i = next(i for i in outside if key & lay.fields((i,)))
                raise ValueError(f"polynomial mentions variable {i} outside S and T")
    smask = lay.fields(S)
    rows = defaultdict(dict)
    for key, c in f.packed.items():
        s = key & smask
        rows[s][key ^ s] = c
    return list(rows.values())


def pd_rank(f: SparsePoly, S, T) -> int:
    """Rank over F_p of the partial derivative matrix for the split (S, T)."""
    solver = LinearSolver(f.field)
    for row in _pd_rows(f, S, T):
        solver.try_add(row)
    return solver.rank


def _greedy_basis(f: SparsePoly, S: Sequence[int], target: int) -> tuple:
    """First assignments to S, in lexicographic grid order over S as given,
    whose restrictions are independent; stops as soon as there are ``target``
    of them, the known dimension."""
    degs = f.individual_degrees()
    solver = LinearSolver(f.field)
    chosen = []
    for a in itertools.product(*(range(degs[v] + 1) for v in S)):
        if solver.try_add(f.substitute(dict(zip(S, a))).packed):
            chosen.append(a)
            if solver.rank >= target:
                break
    return tuple(chosen)


def eval_dim(f: SparsePoly, S, T, R=(), *, trials: int = 3, seed: int = 0,
             with_basis: bool = True) -> EvalDimReport:
    """Evaluation dimension of f with respect to fixing S, distinguishing T,
    with R moved into the coefficient field by random substitution.

    With empty R the answer is the exact partial-derivative-matrix rank; with
    nonempty R it is the maximum rank over ``trials`` independent random
    substitutions, exact with high probability.
    """
    S = tuple(sorted(set(S)))
    T = tuple(sorted(set(T)))
    R = tuple(sorted(set(R)))
    _check_partition(f.num_vars, S, T, R)
    if f.field.p <= f.total_degree():
        raise ValueError(
            f"field size {f.field.p} must exceed deg(f) = {f.total_degree()}"
        )
    if not R:
        dim, best_sub, trial_dims = pd_rank(f, S, T), f, ()
    else:
        if trials < 1:
            raise ValueError(f"trials must be at least 1 when R is nonempty, got {trials}")
        rng = random.Random(seed)
        dim, best_sub, trial_dims = -1, None, []
        for _ in range(trials):
            g = f.substitute({r: f.field.random(rng) for r in R})
            d = pd_rank(g, S, T)
            trial_dims.append(d)
            if d > dim:
                dim, best_sub = d, g
    basis = _greedy_basis(best_sub, S, dim) if with_basis else ()
    return EvalDimReport(S, T, R, dim, basis, tuple(trial_dims))


def _check_order(num_vars: int, order) -> tuple:
    order = tuple(order)
    if sorted(order) != list(range(num_vars)):
        raise ValueError("order must be a permutation of all variables")
    return order


def roabp_width_profile(f: SparsePoly, order) -> tuple:
    """Exact evaluation dimension at every interior prefix cut of the order:
    the pointwise minimal width of any read-once program in that order."""
    order = _check_order(f.num_vars, order)
    if f.field.p <= f.total_degree():
        raise ValueError("field too small for exact width profile")
    out = []
    for i in range(1, f.num_vars):
        out.append(pd_rank(f, order[:i], order[i:]))
    return tuple(out)


def roabp_synthesize(f: SparsePoly, order=None) -> Roabp:
    """Construct a read-once oblivious program for f in the given order whose
    realized widths meet the evaluation-dimension profile exactly.

    Cut i's basis is the previous basis's g in turn, each with v = 0..d_v, kept
    when independent of those kept before.  That is the lexicographically
    first basis over the (d+1)-grid of prefix assignments: if a prefix a was
    not kept, f|a is a combination of earlier kept f|a', so f|(a, c) is a
    combination of the earlier f|(a', c), and no full grid scan keeps it.
    Each previous basis polynomial g splits as g = sum_e v^e * g_e by the
    exponent of the layer's variable v; every g_e is a combination of
    restrictions g|_{v=c}, so it lies in the next basis's span, and its
    coordinates there are the degree-e coefficients of the layer's entries.
    """
    n = f.num_vars
    order = _check_order(n, order if order is not None else range(n))
    field = f.field
    if field.p <= f.total_degree():
        raise ValueError("field too small for synthesis")
    if n == 0:
        value = f.coefficient(())
        abp = ObliviousAbp(field, 0, (UniMatrix.constant(field, ((value,),)),))
        return Roabp(abp, (), ())
    if f.is_zero:
        layers = []
        for idx, v in enumerate(order):
            entry = () if idx == 0 else (1,)
            layers.append(UniMatrix(field, v, ((entry,),)))
        return Roabp(ObliviousAbp(field, n, tuple(layers)),
                     order, (1,) * (n - 1))
    degs = f.individual_degrees()
    lay = f.layout          # every basis polynomial is a restriction of f, in its layout
    cur_basis = [f]
    layers = []
    for i in range(1, n + 1):
        v = order[i - 1]
        solver = LinearSolver(field, track_coords=True)
        if i < n:
            basis_polys = [h for g in cur_basis for c in range(degs[v] + 1)
                           if solver.try_add((h := g.substitute({v: c})).packed)]
        else:
            one = SparsePoly._trusted(field, n, {0: 1}, lay)
            solver.try_add(one.packed)
            basis_polys = [one]
        offset, mask = lay.field(v)
        rows = []
        for g in cur_basis:
            slices = [{} for _ in range(degs[v] + 1)]
            for key, c in g.packed.items():
                e = (key >> offset) & mask
                slices[e][key ^ (e << offset)] = c
            coords = [solver.express(g_e, size=len(basis_polys)) for g_e in slices]
            if None in coords:
                raise RuntimeError("synthesis basis does not span an extension")
            rows.append(tuple(zip(*coords)))
        layers.append(UniMatrix(field, v, tuple(rows)))
        cur_basis = basis_polys
    abp = ObliviousAbp(field, n, tuple(layers))
    return Roabp(abp, order, tuple(layer.width_out for layer in layers[:-1]))


def k_gap_check(reads, num_vars: int, prefix_len: int, order=None) -> int:
    """Number of alternations, along a program's ``reads``, between reads of
    the first ``prefix_len`` variables of the order and reads of the rest: the
    minimal t for which the restricted program factors as N_1 M_1 ... N_t M_t.
    The program has the k-gap property for this prefix exactly when the
    result is <= k."""
    order = _check_order(num_vars, order if order is not None else range(num_vars))
    if not 0 <= prefix_len <= num_vars:
        raise ValueError(f"prefix length {prefix_len} out of range")
    prefix = set(order[:prefix_len])
    if not reads:
        return 1
    flags = ["P" if v in prefix else "N" for v in reads]
    runs = 1 + sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    p_runs = (runs + (flags[0] == "P")) // 2
    n_runs = runs - p_runs
    t = (p_runs + n_runs + (flags[0] == "N") + (flags[-1] == "P")) // 2
    return max(t, 1)


def k_gap_to_roabp(abp: ObliviousAbp, guard: int = DEFAULT_EXPAND_GUARD) -> Roabp:
    """Collapse a width-w program with the k-gap property (identity prefix
    order, k its tight read multiplicity) to a read-once program of width at
    most w^(2k) in that order."""
    k = max(validate(abp).k, 1)
    reads = abp.read_order()
    offending = [(i, g) for i in range(1, abp.num_vars + 1)
                 if (g := k_gap_check(reads, abp.num_vars, i)) > k]
    if offending:
        i, g = offending[0]
        raise ClassificationError(
            f"k-gap bound {k} violated at prefix length {i} (needs {g} gaps)"
        )
    f = abp.expand(guard)
    return roabp_synthesize(f, tuple(range(abp.num_vars)))


def k_pass_to_roabp(abp: ObliviousAbp, guard: int = DEFAULT_EXPAND_GUARD) -> Roabp:
    """Collapse a k-pass program (same order every pass) to a read-once
    program in that order, of width at most w^(2k).  A 1-pass input is already
    read-once and is returned unchanged."""
    cls = validate(abp)
    if not cls.is_k_pass:
        raise ClassificationError("program is not k-pass in a single order")
    pi = cls.pass_orders[0]
    if cls.k == 1:
        boundary = tuple(layer.width_out for layer in abp.layers[:-1])
        return Roabp(abp, pi, boundary)
    # k passes in order pi give exactly k gaps at every proper prefix of pi,
    # so the k-gap collapse applies without a check.
    return roabp_synthesize(abp.expand(guard), pi)
