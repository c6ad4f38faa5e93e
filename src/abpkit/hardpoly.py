"""Hard polynomial families and the finite-size mechanisms behind their
lower bounds.

P_n multiplies all row sums and all column sums of an n x n variable matrix;
it has a width-2 program that reads the matrix row-major and then
column-major.  Q_n sums, over the n edge-disjoint perfect matchings that tile
the complete bipartite graph, a z-weighted product of the matched (x + y)
pairs; it is a small depth-3 circuit but needs exponential width at bounded
read multiplicity.  The experiments here certify, at desk scale, the exact
rank floors that drive both arguments.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .abp import DEFAULT_EXPAND_GUARD, ObliviousAbp, _missing_reads, write_csv
from .algebra import (DEFAULT_FIELD, GuardExceeded, Layout, LinearSolver, PrimeField,
                      SparsePoly, UniMatrix)
from .evaldim import Roabp, eval_dim, pd_rank

EXPERIMENT_FIELD = PrimeField(10007)


@dataclass
class HardFamilyInstance:
    family: str
    n: int
    polynomial: SparsePoly | None
    realization: ObliviousAbp
    matchings: tuple = ()


def pn_var(n: int, i: int, j: int) -> int:
    """Variable id of matrix entry (i, j), 1-based, row-major."""
    return (i - 1) * n + (j - 1)


def pn_var_name(n: int, v: int) -> str:
    return f"x{v // n + 1}_{v % n + 1}"


def _term_guard(name: str, terms: int) -> None:
    """Refuse, before building it, a symbolic polynomial past the guard."""
    if terms > DEFAULT_EXPAND_GUARD:
        raise GuardExceeded(
            f"symbolic {name} estimated at {terms} terms exceeds guard {DEFAULT_EXPAND_GUARD}")


def _pn_terms(m: int) -> int:
    """Term bound of P_m: a product of 2m linear forms of m terms each."""
    return m ** (2 * m)


def _pn_polynomial(field: PrimeField, n: int, block) -> SparsePoly:
    """Product of the row sums and the column sums of the submatrix on rows
    and columns ``block`` (1-based), over all n^2 variables.  The two products
    are built apart and multiplied once, which pairs fewer terms."""
    _term_guard(f"P_{len(block)}", _pn_terms(len(block)))
    nv = n * n
    rows = cols = SparsePoly.const(field, nv, 1)
    for a in block:
        rows = rows * SparsePoly.linear(field, nv, {pn_var(n, a, b): 1 for b in block})
        cols = cols * SparsePoly.linear(field, nv, {pn_var(n, b, a): 1 for b in block})
    return rows * cols


def gen_pn(n: int, field: PrimeField = DEFAULT_FIELD,
           with_poly: bool | None = None) -> HardFamilyInstance:
    """The row-sum/column-sum product on n^2 variables with its width-2
    two-pass varying-order realization (row-major pass, then column-major).
    By default the symbolic polynomial is included if its n^(2n) term bound
    fits the expansion guard; beyond that only the program is returned."""
    if n < 1:
        raise ValueError("n must be at least 1")
    nv = n * n
    if n == 1:
        x = ((( (0, 1), ),),)
        layers = (UniMatrix(field, 0, x[0]), UniMatrix(field, 0, x[0]))
    else:
        order = [pn_var(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        order += [pn_var(n, i, j) for j in range(1, n + 1) for i in range(1, n + 1)]
        layers = [UniMatrix(field, order[0], (((1,), (0, 1)),))]
        for pos in range(1, len(order)):
            v = order[pos]
            if pos % n == 0:
                rows = (((), ()), ((1,), (0, 1)))
            else:
                rows = (((1,), (0, 1)), ((), (1,)))
            layers.append(UniMatrix(field, v, rows))
        layers.append(UniMatrix(field, None, (((),), ((1,),))))
        layers = tuple(layers)
    if with_poly is None:
        with_poly = _pn_terms(n) <= DEFAULT_EXPAND_GUARD
    poly = _pn_polynomial(field, n, range(1, n + 1)) if with_poly else None
    return HardFamilyInstance("Pn", n, poly, ObliviousAbp(field, nv, layers))


def qn_matchings(n: int) -> tuple:
    """The n edge-disjoint perfect matchings of K_{n,n}: matching i pairs x_j
    with y_{((j + i - 1) mod n) + 1} (1-based, wrapping)."""
    return tuple(
        tuple((j, ((j + i - 1) % n) + 1) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def qn_x(n: int, j: int) -> int:
    return j - 1


def qn_y(n: int, k: int) -> int:
    return n + k - 1


def qn_z(n: int, i: int) -> int:
    return 2 * n + i - 1


def qn_var_name(n: int, v: int) -> str:
    if v < n:
        return f"x{v + 1}"
    if v < 2 * n:
        return f"y{v - n + 1}"
    return f"z{v - 2 * n + 1}"


def _qn_terms(n: int) -> int:
    """Term count of Q_n: n matchings, each 2^n terms under its own z."""
    return n * 2 ** n


def _qn_polynomial(field: PrimeField, n: int) -> SparsePoly:
    _term_guard(f"Q_{n}", _qn_terms(n))
    nv = 3 * n
    total = SparsePoly.zero(field, nv)
    for i, matching in enumerate(qn_matchings(n), start=1):
        branch = SparsePoly.variable(field, nv, qn_z(n, i))
        for j, k in matching:
            branch = branch * SparsePoly.linear(
                field, nv, {qn_x(n, j): 1, qn_y(n, k): 1})
        total = total + branch
    return total


def gen_qn(n: int, field: PrimeField = DEFAULT_FIELD,
           with_poly: bool | None = None) -> HardFamilyInstance:
    """The matching-sum polynomial on x, y, z with a width-4 oblivious
    program that runs the matchings branch by branch (so each x and y is read
    n times, each z once).  State lanes: constant, accumulated sum, current
    factor product, product times partial factor.  By default the symbolic
    polynomial is included when its n 2^n terms fit the expansion guard."""
    if n < 2:
        raise ValueError("n must be at least 2")
    nv = 3 * n
    matchings = qn_matchings(n)
    x_start = (((1,), (), (1,), (0, 1)),
               ((), (1,), (), ()),
               ((), (), (), ()),
               ((), (), (), ()))
    x_mid = (((1,), (), (), ()),
             ((), (1,), (), ()),
             ((), (), (), ()),
             ((), (), (1,), (0, 1)))
    y_layer = (((1,), (), (), ()),
               ((), (1,), (), ()),
               ((), (), (1,), (0, 1)),
               ((), (), (), (1,)))
    z_layer = (((1,), (), (), ()),
               ((), (1,), (), ()),
               ((), (), (), ()),
               ((), (0, 1), (), ()))
    layers = []
    for i, matching in enumerate(matchings, start=1):
        for j, k in matching:
            if i == 1 and j == 1:
                layers.append(UniMatrix(field, qn_x(n, j), (((1,), (), (1,), (0, 1)),)))
            elif j == 1:
                layers.append(UniMatrix(field, qn_x(n, j), x_start))
            else:
                layers.append(UniMatrix(field, qn_x(n, j), x_mid))
            layers.append(UniMatrix(field, qn_y(n, k), y_layer))
        if i < n:
            layers.append(UniMatrix(field, qn_z(n, i), z_layer))
        else:
            layers.append(UniMatrix(field, qn_z(n, i),
                                    (((),), ((1,),), ((),), ((0, 1),))))
    if with_poly is None:
        with_poly = _qn_terms(n) <= DEFAULT_EXPAND_GUARD
    poly = _qn_polynomial(field, n) if with_poly else None
    return HardFamilyInstance("Qn", n, poly, ObliviousAbp(field, nv, tuple(layers)),
                              matchings)


# -- block partition ------------------------------------------------------------


@dataclass
class BlockPartition:
    """Averaging-argument split: after dividing the layers into r contiguous
    blocks, U collects variables whose every read falls inside the chosen k
    blocks, W the other variables those blocks touch, V the rest."""

    U: frozenset
    V: frozenset
    W: frozenset
    blocks: tuple
    chosen: tuple
    r: int
    k: int


def block_partition(abp: ObliviousAbp, r: int) -> BlockPartition:
    """Split the program's layers and then its missing reads (``padded_reads``)
    into r near-equal contiguous blocks and pick the k of them jointly covering
    all reads of the largest variable set: an exhaustive scan over the C(r, k)
    tuples, first best wins.  By averaging, it has at least n / C(r, k)."""
    k, missing = _missing_reads(abp)
    reads = [layer.var for layer in abp.layers] + missing
    length = len(reads)
    if r > length:
        raise ValueError(f"cannot cut {length} layers into {r} blocks")
    if k > r:
        raise ValueError(f"need at least k={k} blocks, got r={r}")
    sizes = [length // r + (1 if i < length % r else 0) for i in range(r)]
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    block_of = {}
    touched = [set() for _ in range(r)]
    for b, (lo, hi) in enumerate(bounds):
        for v in reads[lo:hi]:
            if v is not None:
                touched[b].add(v)
                block_of.setdefault(v, set()).add(b)
    variables = sorted(block_of)
    best_combo = None
    best_u: list = []
    for combo in itertools.combinations(range(r), k):
        cset = set(combo)
        u = [v for v in variables if block_of[v] <= cset]
        if best_combo is None or len(u) > len(best_u):
            best_combo, best_u = combo, u
    u = frozenset(best_u)
    w = frozenset(v for b in best_combo for v in touched[b]) - u
    v_rest = frozenset(range(abp.num_vars)) - u - w
    return BlockPartition(u, v_rest, w, tuple(bounds), tuple(best_combo), r, k)


# -- summand elimination ----------------------------------------------------------


@dataclass
class EliminationResult:
    """Nontrivial combination of prefix restrictions that kills the first
    summand of a sum of read-once programs, plus the parallel-composed
    programs computing the same combination of each remaining summand."""

    subset: tuple
    assignments: tuple
    alpha: tuple
    residuals: tuple


def eliminate_summand(parts, t: int) -> EliminationResult:
    """Given read-once programs h_1..h_c of width <= w, pick the first w+1
    grid assignments to the first t variables of h_1's order; their h_1
    restrictions are forced linearly dependent, and the first dependency
    yields alpha with sum(alpha_i * h_1|_{a_i}) = 0.  Each other summand's
    matching combination is returned as a width <= w(w+1) read-once program
    built by wiring the restricted copies in parallel."""
    if not parts:
        raise ValueError("need at least one summand")
    part1 = parts[0]
    n = part1.abp.num_vars
    if not 0 <= t < n:
        raise ValueError(f"prefix size t={t} must satisfy 0 <= t < n={n}")
    width = max(p.width for p in parts)
    subset = part1.order[:t]
    degs = part1.abp.individual_degrees()
    field = part1.abp.field
    # Any w+1 restrictions are dependent (the prefix evaluation space has
    # dimension <= w), but the scanned grid must contain that many points:
    # widen value ranges past d+1 round-robin until it does or all reach p.
    ranges = [degs[v] + 1 for v in subset]
    i = 0
    while ranges and math.prod(ranges) < width + 1 and min(ranges) < field.p:
        if ranges[i] < field.p:
            ranges[i] += 1
        i = (i + 1) % len(ranges)
    grid = itertools.product(*(range(m) for m in ranges))
    # restrict keeps every layer that reads a free variable and drops the
    # fixed ones' reads, so each restriction expands in this one layout
    layout = Layout(0 if v in subset else d for v, d in enumerate(degs))
    solver = LinearSolver(field, track_coords=True)
    assignments = []
    alpha = None
    for a in grid:
        restriction = part1.abp.restrict(dict(zip(subset, a))).expand()
        vec = restriction.layout.repack(restriction.packed, layout)
        assignments.append(a)
        if not solver.try_add(vec):
            alpha = solver.express(vec, len(assignments))
            alpha[-1] = field.p - 1
            break
    if alpha is None:
        raise ValueError(
            "grid over the prefix is too small to force a linear dependency"
        )
    alpha = tuple(alpha)
    fixed = set(subset)
    points = [dict(zip(subset, a)) for a in assignments]
    residuals = []
    for part in parts[1:]:
        last = len(part.abp.layers) - 1
        layers = []
        for idx, layer in enumerate(part.abp.layers):
            if layer.var in fixed:
                var, blocks = None, [layer.to_constant(point[layer.var]) for point in points]
            else:
                var, blocks = layer.var, [layer] * len(points)
            if idx == 0:
                blocks = [b.scale(c) for b, c in zip(blocks, alpha)]
            layers.append(UniMatrix(field, var, _wire_blocks(blocks, idx == 0, idx == last)))
        abp2 = ObliviousAbp(field, n, tuple(layers))
        order2 = tuple(v for v in part.order if v not in fixed)
        boundary = tuple(layer.width_out for layer in abp2.layers[:-1])
        residuals.append(Roabp(abp2, order2, boundary))
    return EliminationResult(tuple(subset), tuple(assignments), alpha,
                             tuple(residuals))


def _wire_blocks(blocks, first: bool, last: bool) -> tuple:
    """Entries of the parallel composition of one layer's blocks: the blocks
    sit on the diagonal, except that a first layer's blocks share the source
    row and a last layer's blocks share the sink column.  Cells that meet
    (only in a one-layer program) hold the sum of their entries."""
    height = 1 if first else sum(b.width_in for b in blocks)
    width = 1 if last else sum(b.width_out for b in blocks)
    cells = [[()] * width for _ in range(height)]
    top = left = 0
    for b in blocks:
        for r, row in enumerate(b.entries):
            for c, entry in enumerate(row):
                cell = cells[top + r][left + c]
                cells[top + r][left + c] = tuple(
                    map(sum, itertools.zip_longest(cell, entry, fillvalue=0)))
        top += 0 if first else b.width_in
        left += 0 if last else b.width_out
    return tuple(map(tuple, cells))


# -- experiments ------------------------------------------------------------------


@dataclass
class PnRow:
    subset: tuple
    t: int
    dimension: int
    floor: int
    lemma_applies: bool
    ok: bool


@dataclass
class PnEvalDimReport:
    n: int
    rows: tuple

    def to_csv(self, path) -> None:
        write_csv(path, ["subset", "t", "dimension", "floor", "lemma_applies", "ok"],
                  (["+".join(pn_var_name(self.n, v) for v in row.subset),
                    row.t, row.dimension, row.floor, int(row.lemma_applies), int(row.ok)]
                   for row in self.rows))


def experiment_pn_evaldim(n: int, max_size: int = 4,
                          field: PrimeField = DEFAULT_FIELD,
                          subsets=None) -> PnEvalDimReport:
    """Exact evaluation dimension of P_n for every variable subset S up to
    ``max_size``, against the floor 2^ceil(sqrt(|S|)).  The floor is the
    lemma's guarantee when |S| < n; larger subsets are reported with the
    same floor for inspection.  The rank is the evaluation dimension only if
    p exceeds P_n's individual degree 2."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if field.p <= 2:
        raise ValueError(f"field size {field.p} must exceed P_n's individual degree 2")
    nv = n * n
    poly = _pn_polynomial(field, n, range(1, n + 1))
    if subsets is None:
        subsets = []
        for t in range(0, max_size + 1):
            subsets.extend(itertools.combinations(range(nv), t))
    rows = []
    for subset in subsets:
        t = len(subset)
        chosen = set(subset)
        if len(chosen) != t or not chosen <= set(range(nv)):
            raise ValueError(f"subset {tuple(subset)} needs distinct variables in 0..{nv - 1}")
        complement = tuple(v for v in range(nv) if v not in chosen)
        dim = pd_rank(poly, subset, complement)
        floor = 2 ** (math.isqrt(t - 1) + 1 if t > 0 else 0)
        rows.append(PnRow(tuple(subset), t, dim, floor, t < n, dim >= floor))
    return PnEvalDimReport(n, tuple(rows))


@dataclass
class PnProjectionStep:
    """One induction step of the separation argument: a nonzero combination
    of P_n restrictions, projected down to a constant multiple of the smaller
    row-sum/column-sum product on the trailing block."""

    n: int
    t: int
    subset: tuple
    combination: tuple
    border_assignment: dict
    corner_value: int
    scale: int
    verified: bool


def pn_projection_step(n: int, t: int, field: PrimeField = DEFAULT_FIELD,
                       seed: int = 0) -> PnProjectionStep:
    """Exercise the projection mechanism one step: take S as t cells of the
    first row, a nonzero combination g of basis restrictions of P_n, fix the
    first t rows and columns keeping g nonzero, absorb the leftover row and
    column constants into the last column and row, pick a corner value that
    keeps the two remaining linear factors nonzero, and verify the result is
    a nonzero constant times P_(n-t-1) on the trailing block."""
    if not 0 <= t <= n - 2:
        raise ValueError("need 0 <= t <= n-2 so the trailing block is nonempty")
    rng = random.Random(seed)
    poly = _pn_polynomial(field, n, range(1, n + 1))
    nv = n * n
    subset = tuple(pn_var(n, 1, j) for j in range(1, t + 1))
    if subset:
        basis = eval_dim(poly, subset,
                         [v for v in range(nv) if v not in set(subset)]
                         ).basis_assignments
    else:
        basis = ((),)
    combination = tuple(rng.randrange(1, field.p) for _ in basis)
    g = SparsePoly.zero(field, nv)
    for coeff, assignment in zip(combination, basis):
        g = g + poly.substitute(dict(zip(subset, assignment))).scale(coeff)
    if g.is_zero:
        raise RuntimeError("combination of independent restrictions vanished")
    # fix every cell in the first t rows or first t columns, keeping g nonzero
    region = sorted(v for v in range(nv)
                    if (v // n < t or v % n < t) and v not in set(subset))
    fixed = None
    for values in itertools.product(range(3), repeat=len(region)):
        candidate = g.substitute(dict(zip(region, values)))
        if not candidate.is_zero:
            fixed = dict(zip(region, values))
            g = candidate
            break
    if fixed is None:
        raise RuntimeError("no region assignment keeps the combination nonzero")
    # leftover constants per surviving row and column factor
    alphas = {i: sum(fixed.get(pn_var(n, i, j), 0) for j in range(1, t + 1)) % field.p
              for i in range(t + 1, n + 1)}
    betas = {j: sum(fixed.get(pn_var(n, i, j), 0) for i in range(1, t + 1)) % field.p
             for j in range(t + 1, n + 1)}
    border = {}
    for i in range(t + 1, n):
        border[pn_var(n, i, n)] = (-alphas[i]) % field.p
    for j in range(t + 1, n):
        border[pn_var(n, n, j)] = (-betas[j]) % field.p
    g = g.substitute(border)
    corner = pn_var(n, n, n)
    final = None
    corner_value = None
    for v in range(field.p):
        candidate = g.substitute({corner: v})
        if not candidate.is_zero:
            final = candidate
            corner_value = v
            break
    if final is None:
        raise RuntimeError("no corner value keeps the projection nonzero")
    lifted = _pn_polynomial(field, n, range(t + 1, n))
    layout = final.layout.join(lifted.layout)
    want, have = (q.layout.repack(q.packed, layout) for q in (final, lifted))
    key = next(iter(want))
    scale = field.mul(want[key], field.inv(have[key])) if key in have else 0
    verified = scale != 0 and lifted.scale(scale) == final
    return PnProjectionStep(n, t, subset, combination, {**fixed, **border},
                            corner_value, scale, verified)


@dataclass
class QnRow:
    S: tuple
    T: tuple
    m: int
    witness_matching: int
    dimension: int
    floor: int
    ok: bool
    trial_dims: tuple


@dataclass
class QnEvalDimReport:
    n: int
    rows: tuple

    def to_csv(self, path) -> None:
        write_csv(path, ["S", "T", "m", "witness_matching", "dimension", "floor", "ok",
                         "trial_dims"],
                  (["+".join(qn_var_name(self.n, v) for v in row.S),
                    "+".join(qn_var_name(self.n, v) for v in row.T),
                    row.m, row.witness_matching, row.dimension, row.floor, int(row.ok),
                    " ".join(str(d) for d in row.trial_dims)]
                   for row in self.rows))


def qn_cross_edges(n: int, S, T) -> tuple:
    """Best matching by S-T cross-edge count: returns (m, matching index)."""
    S = set(S)
    T = set(T)
    best = (-1, 0)
    for i, matching in enumerate(qn_matchings(n), start=1):
        m = 0
        for j, kk in matching:
            xv, yv = qn_x(n, j), qn_y(n, kk)
            if (xv in S and yv in T) or (xv in T and yv in S):
                m += 1
        if m > best[0]:
            best = (m, i)
    return best


def experiment_qn_evaldim(n: int, pairs: int = 50, trials: int = 3,
                          seed: int = 0,
                          field: PrimeField = EXPERIMENT_FIELD) -> QnEvalDimReport:
    """Sample random bipartitions (S, T) of the x and y variables, compute the
    evaluation dimension with the z variables moved into the field by random
    substitution, and compare against 2^m where m is the largest number of
    matched (x + y) pairs crossing between S and T."""
    if n < 2:
        raise ValueError("n must be at least 2")
    poly = _qn_polynomial(field, n)
    xy = list(range(2 * n))
    zvars = tuple(range(2 * n, 3 * n))
    rng = random.Random(seed)
    rows = []
    for trial in range(pairs):
        while True:
            S = tuple(v for v in xy if rng.random() < 0.5)
            T = tuple(v for v in xy if v not in set(S))
            if S and T:
                break
        m, witness = qn_cross_edges(n, S, T)
        report = eval_dim(poly, S, T, zvars, trials=trials,
                          seed=rng.getrandbits(32), with_basis=False)
        floor = 2 ** m
        rows.append(QnRow(S, T, m, witness, report.dimension, floor,
                          report.dimension >= floor, report.trial_dims))
    return QnEvalDimReport(n, tuple(rows))
