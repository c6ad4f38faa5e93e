"""Oblivious algebraic branching programs: layered products of univariate
matrices, one read variable per layer.

The polynomial computed by a program is the (1,1) entry of the product of its
layer matrices: the sum of its source-to-sink path products (Nisan 1991), zero
if no path has only nonzero entries.  It is also zero if its read-once
relaxation is, the program with each layer reading a fresh variable, which is
decided by forward span in time polynomial in layers, width and degree
(Raz–Shpilka 2005); cancelling lanes have a path but a zero relaxation.
``expand`` is the brute-force oracle that turns a program into an explicit
SparsePoly; it is guarded so it refuses (never truncates) once a partial
product outgrows a term limit.  It keys monomials as SparsePoly does, by
packed ints with one bit field per variable as wide as its individual
degree, which no exponent of a partial product exceeds: shifting a term is
one add, no carry.  Within the limit it multiplies from both ends and joins
them at the cut the degree boxes price cheapest; past it, in order.

Padding every variable up to k reads belongs to the read sequence:
``padded_reads``, the read order and then the reads each variable lacks of k,
serves the ``sequence`` verb, ``block_partition`` and the identity test (which
prunes it as it stands), whose recursion alone pads a program (``_pad``), to
prune with its caller's k.
``restrict``, ``UniMatrix.constant`` and ``ReadSequence.from_order``/``restrict``
skip re-validation: they keep validated layers and, folding, the widths at a
run's borders; ``constant`` reduces its own entries; a relabeled order is
valid as built.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .algebra import GuardExceeded, Layout, LinearSolver, PrimeField, SparsePoly, UniMatrix

DEFAULT_EXPAND_GUARD = 10 ** 6


class ClassificationError(ValueError):
    """An ABP does not belong to the class an operation requires."""


@dataclass
class ObliviousAbp:
    """Ordered list of univariate-entry matrices with chained dimensions.
    The first layer has one row and the last layer has one column (the source
    and sink vertices)."""

    field: PrimeField
    num_vars: int
    layers: tuple

    def __post_init__(self) -> None:
        if type(self.num_vars) is not int or self.num_vars < 0:
            raise ValueError(f"num_vars must be a non-negative integer, got {self.num_vars!r}")
        self.layers = tuple(self.layers)
        prev_out = 1
        for idx, layer in enumerate(self.layers):
            if layer.field != self.field:
                raise ValueError(f"layer {idx} uses a different field")
            if layer.var is not None and not 0 <= layer.var < self.num_vars:
                raise ValueError(f"layer {idx} reads variable {layer.var} out of range")
            if layer.width_in != prev_out:
                raise ValueError(
                    f"layer {idx} expects width {layer.width_in}, previous produces {prev_out}"
                )
            prev_out = layer.width_out
        if self.layers and prev_out != 1:
            raise ValueError("last layer must have a single column (sink)")

    # -- basic measures ------------------------------------------------------

    @property
    def width(self) -> int:
        w = 1
        for layer in self.layers:
            w = max(w, layer.width_in, layer.width_out)
        return w

    @property
    def degree(self) -> int:
        return max((layer.degree for layer in self.layers), default=0)

    def read_order(self) -> list:
        """Variables read layer by layer; constant layers read nothing and
        identity layers count as genuine reads."""
        return [layer.var for layer in self.layers if layer.var is not None]

    def read_counts(self) -> dict:
        return dict(Counter(self.read_order()))

    def individual_degrees(self) -> list:
        degs = [0] * self.num_vars
        for layer in self.layers:
            if layer.var is not None:
                degs[layer.var] += layer.degree
        return degs

    @cached_property
    def reaches_sink(self) -> bool:
        """Whether a source-sink path has only nonzero entries; if not, the program is 0."""
        live = 1                # bit i: vertex i of the current layer boundary is reached
        for layer in self.layers:
            todo, live = live, 0
            while todo:         # OR in the support mask of each reached row, lowest first
                live |= layer.support[(todo & -todo).bit_length() - 1]
                todo &= todo - 1
        return live != 0

    @cached_property
    def relaxation_zero(self) -> bool:
        """Whether the read-once relaxation, each layer reading a fresh variable,
        is zero; if so, the program is 0.  Forward span (Raz–Shpilka 2005): a
        basis of the row vectors source·A_1,e_1···A_i,e_i over all exponents e,
        zero once a layer's span is empty."""
        p = self.field.p
        basis = [{0: 1}]
        for layer in self.layers:
            solver = LinearSolver(self.field)
            span = []
            for vec in basis:
                outs = [{} for _ in range(layer.degree + 1)]    # vec·A_e, one per e
                for i, a in vec.items():
                    for j, coeffs in enumerate(layer.entries[i]):
                        for out, c in zip(outs, coeffs):
                            if c:
                                out[j] = out.get(j, 0) + a * c
                for out in outs:
                    out = {j: r for j, c in out.items() if (r := c % p)}
                    if solver.try_add(out):
                        span.append(out)
            if not span:
                return True
            basis = span
        return False

    def estimated_terms(self) -> int:
        """Bound on the expansion's terms: 0 if no source-sink path, else the degree box."""
        return math.prod(d + 1 for d in self.individual_degrees()) if self.reaches_sink else 0

    # -- semantics -----------------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.num_vars:
            raise ValueError(f"point length {len(point)} != num_vars {self.num_vars}")
        p = self.field.p
        vec = [1]
        for layer in self.layers:
            vec = _times_layer(vec, layer, 0 if layer.var is None else point[layer.var] % p, p)
        return vec[0]

    def expand(self, guard: int = DEFAULT_EXPAND_GUARD) -> SparsePoly:
        """Exact polynomial computed by the program.  Refuses explicitly, with
        GuardExceeded and never a truncated result, as soon as a column's
        reduced term map holds more than ``guard`` terms.  Each map holds
        distinct monomials of the degree box, so a program whose
        ``estimated_terms()`` is within the guard always expands.  A program
        with no source-sink path of nonzero entries decides the result at
        once: the zero polynomial, before any term map.  So does one whose
        degree-box estimate passes layers * width^2, the span check's own cost
        scale, and whose read-once relaxation is zero.  Keys are packed in the
        ``Layout`` of the individual degrees, which no exponent of a partial
        product, or of a prefix's times a suffix's, exceeds: no add carries.
        f = sum_j left_j * right_j, the source row through layers 1..m times
        the sink column back through L..m+1, with m = ``_cheapest_cut`` when
        the estimate is within the guard (no order can refuse), else L."""
        degs = self.individual_degrees()
        est = math.prod(d + 1 for d in degs)
        if not self.reaches_sink or (est > len(self.layers) * self.width ** 2
                                     and self.relaxation_zero):
            return SparsePoly.zero(self.field, self.num_vars)
        layout, p, layers = Layout(degs), self.field.p, self.layers
        m = _cheapest_cut(layers, degs) if est <= guard else len(layers)
        row = _sweep(layers[:m], layout, p, guard)
        if m < len(layers):     # the join: sum_j left_j * right_j
            acc = {}
            get = acc.get
            for left, right in zip(row, _sweep(layers[m:][::-1], layout, p, guard, columns=True)):
                if len(left) > len(right):
                    left, right = right, left
                for shift, c in left.items():
                    for key, a in right.items():
                        k = key + shift
                        acc[k] = get(k, 0) + a * c
            row = [{key: r for key, a in acc.items() if (r := a % p)}]
        return SparsePoly._trusted(self.field, self.num_vars, row[0], layout)

    def restrict(self, assignment: Mapping[int, int]) -> "ObliviousAbp":
        """Fix some variables.  Each run of layers that read nothing or read a
        fixed variable is folded into one constant layer, the product of
        their values, which never changes the computed polynomial; a run of
        one constant layer keeps that layer.  A fold takes in each later layer
        in one pass; the result is not validated again (module notes)."""
        for i in assignment:
            if not 0 <= i < self.num_vars:
                raise ValueError(f"assigned variable {i} out of range")
        p = self.field.p
        layers = []
        rows = None         # the current fixed run's product, or its one constant layer
        for layer in self.layers:
            if layer.var is not None and layer.var not in assignment:
                if rows is not None:
                    layers.append(rows if type(rows) is UniMatrix
                                  else UniMatrix.constant(self.field, rows))
                    rows = None
                layers.append(layer)
            elif rows is None:
                rows = (layer if layer.var is None
                        else list(layer.eval_at(assignment.get(layer.var, 0))))
            else:
                if type(rows) is UniMatrix:
                    rows = list(rows.eval_at(0))
                x = assignment.get(layer.var, 0) % p
                rows = [_times_layer(vec, layer, x, p) for vec in rows]
        if rows is not None:
            layers.append(rows if type(rows) is UniMatrix
                          else UniMatrix.constant(self.field, rows))
        abp = object.__new__(ObliviousAbp)
        abp.field, abp.num_vars, abp.layers = self.field, self.num_vars, tuple(layers)
        return abp


def _sweep(layers, layout: Layout, p: int, guard: int, columns: bool = False) -> list:
    """The source row {0: 1} times each layer, or the sink column times each
    transpose, one term map per column reduced mod p once per layer; refuses
    once a map outgrows ``guard`` (only the in-order product can)."""
    row = [{0: 1}]
    for i, layer in enumerate(layers, 1):
        offset = 0 if layer.var is None else layout.offsets[layer.var]
        entries = tuple(zip(*layer.entries)) if columns else layer.entries
        out = [{} for _ in entries[0]]
        for terms, coeff_row in zip(row, entries):
            if not terms:
                continue
            for j, coeffs in enumerate(coeff_row):
                shifts = [(e << offset, c) for e, c in enumerate(coeffs) if c]
                acc = out[j]
                if len(shifts) == 1 and not acc:    # distinct keys: fill in one pass
                    (shift, c), = shifts
                    out[j] = {key + shift: a * c for key, a in terms.items()}
                    continue
                get = acc.get
                for key, a in terms.items():
                    for shift, c in shifts:
                        k = key + shift
                        acc[k] = get(k, 0) + a * c
        row = [{key: r for key, a in acc.items() if (r := a % p)} for acc in out]
        if (size := max(map(len, row))) > guard:
            raise GuardExceeded(f"expansion after layer {i} holds {size} terms, "
                                f"more than guard {guard}")
    return row


def _cheapest_cut(layers: tuple, degs: list) -> int:
    """The last cut m (a tie keeps m = L) of least price: layers 1..m's and
    L..m+1's, each the box (product of partial degrees + 1) before it in its
    direction times its widths and degree + 1, plus the width at m times both
    boxes.  The suffix's is the whole's (the same at every cut, so dropped)
    less 1..m's, each priced with the box after it."""
    rest = degs[:]          # each variable's degree in the suffix
    box_l, box_r = 1, math.prod(d + 1 for d in degs)
    price, best, cut = 0, box_r, 0
    for m, layer in enumerate(layers, 1):
        d, entries = layer.degree, layer.entries
        width = len(entries[0])
        size = len(entries) * width * (d + 1)
        price += box_l * size
        if d:
            v = layer.var
            r = rest[v]
            rest[v] = r - d
            b = degs[v] - r + 1
            box_l = box_l // b * (b + d)
            box_r = box_r // (r + 1) * (r - d + 1)
        price -= box_r * size
        if (total := price + width * box_l * box_r) <= best:
            best, cut = total, m
    return cut


def _times_layer(vec: list, layer: UniMatrix, x: int, p: int) -> list:
    """Row vector ``vec`` times ``layer`` at x: Horner on each nonzero entry,
    one reduction mod p."""
    out = [0] * layer.width_out
    for v, row in zip(vec, layer.entries):
        if v:
            for j, coeffs in enumerate(row):
                if coeffs:
                    acc = 0
                    for c in reversed(coeffs):
                        acc = acc * x + c
                    out[j] += v * acc
    return [s % p for s in out]


@dataclass
class AbpClass:
    """Result of classifying an oblivious ABP: tight read multiplicity and
    k-pass structure."""

    k: int
    read_counts: dict
    is_k_pass: bool
    is_k_pass_varying_order: bool
    pass_orders: tuple | None


def _missing_reads(abp: ObliviousAbp) -> tuple:
    """(k, reads): the tight read multiplicity (1 if nothing is read) and, in
    variable order, each variable once for every read it lacks of k."""
    counts = abp.read_counts()
    k = max(counts.values(), default=1)
    return k, [v for v in range(abp.num_vars) for _ in range(k - counts.get(v, 0))]


def padded_reads(abp: ObliviousAbp) -> list:
    """The read order and then the reads each variable lacks of k: every
    variable read exactly k times, k the tight read multiplicity."""
    return abp.read_order() + _missing_reads(abp)[1]


def _pad(abp: ObliviousAbp, reads) -> ObliviousAbp:
    """``abp`` and then a 1x1 identity layer reading each of ``reads`` in
    turn, which keeps width and polynomial."""
    return ObliviousAbp(abp.field, abp.num_vars, abp.layers + tuple(
        UniMatrix.identity(abp.field, 1, v) for v in reads))


def validate(abp: ObliviousAbp) -> AbpClass:
    """Classify the program: tight k and k-pass / k-pass varying-order
    structure, judged on the raw read order."""
    order = abp.read_order()
    counts = abp.read_counts()
    k = max(counts.values(), default=0)
    n = abp.num_vars
    is_pass = False
    varying = False
    pass_orders = None
    if n > 0 and k > 0 and len(order) == n * k and len(counts) == n:
        chunks = [tuple(order[j * n:(j + 1) * n]) for j in range(k)]
        if all(sorted(c) == list(range(n)) for c in chunks):
            varying = True
            pass_orders = tuple(chunks)
            is_pass = all(c == chunks[0] for c in chunks)
    return AbpClass(
        k=k,
        read_counts=counts,
        is_k_pass=is_pass,
        is_k_pass_varying_order=varying,
        pass_orders=pass_orders,
    )


# -- file format -------------------------------------------------------------
#
# An ABP file is a JSON document:
#
#   {"field_prime": 101,
#    "num_vars": 4,
#    "layers": [{"var": 1, "matrix": [[[0, 1], [1]], [[], [2, 0, 3]]]},
#               {"var": null, "matrix": [[[5]]]}]}
#
# "var" is the 1-based read variable (null for a constant layer), "matrix" is
# a rows-of-entries grid and each entry is a list of integer coefficients,
# lowest degree first (the empty list is the zero polynomial).  Anything else
# (a float or bool coefficient or var) is refused with a ValueError naming the
# layer and the entry; keys the loader does not read are ignored.
# Serialization is canonical: sorted keys, fixed separators, one trailing
# newline.


def to_json_obj(abp: ObliviousAbp) -> dict:
    layers = [{"var": layer.var + 1 if layer.var is not None else None,
               "matrix": [[list(coeffs) for coeffs in row] for row in layer.entries]}
              for layer in abp.layers]
    return {"field_prime": abp.field.p, "num_vars": abp.num_vars, "layers": layers}


def to_canonical_text(abp: ObliviousAbp) -> str:
    return json.dumps(to_json_obj(abp), sort_keys=True, separators=(",", ":")) + "\n"


def from_json_obj(obj: dict) -> ObliviousAbp:
    if not isinstance(obj, dict):
        raise ValueError("ABP document must be a JSON object")
    try:
        prime = obj["field_prime"]
        num_vars = obj["num_vars"]
        raw_layers = obj["layers"]
    except KeyError as exc:
        raise ValueError(f"ABP document missing required field: {exc}") from exc
    field = PrimeField(prime)
    if not isinstance(raw_layers, list):
        raise ValueError("ABP document: layers must be a list")
    layers = []
    for idx, raw in enumerate(raw_layers):
        if not isinstance(raw, dict):
            raise ValueError(f"layer {idx} must be a JSON object")
        try:
            var = raw["var"]
            matrix = raw["matrix"]
        except KeyError as exc:
            raise ValueError(f"layer {idx} missing required field: {exc}") from exc
        if var is not None:
            if type(var) is not int or var < 1:
                raise ValueError(f"layer {idx}: var must be a 1-based index or null, "
                                 f"got {var!r}")
            var -= 1
        layers.append(UniMatrix(field, var, _int_matrix(idx, matrix)))
    return ObliviousAbp(field, num_vars, tuple(layers))


def _int_matrix(idx: int, matrix) -> tuple:
    """The layer's matrix as nested tuples, refusing anything but lists of
    rows of integer (not bool) coefficient lists."""
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise ValueError(f"layer {idx}: matrix must be a list of rows")
    for r, row in enumerate(matrix):
        for c, entry in enumerate(row):
            if not isinstance(entry, list):
                raise ValueError(f"layer {idx}: matrix[{r}][{c}] must be a "
                                 f"coefficient list, got {entry!r}")
            for e, coeff in enumerate(entry):
                if type(coeff) is not int:
                    raise ValueError(f"layer {idx}: matrix[{r}][{c}] coefficient {e} "
                                     f"must be an integer, got {coeff!r}")
    return tuple(tuple(tuple(entry) for entry in row) for row in matrix)


def parse_text(text: str) -> ObliviousAbp:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"ABP parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return from_json_obj(obj)


def load(path) -> ObliviousAbp:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def save(abp: ObliviousAbp, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_canonical_text(abp))


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a report: UTF-8, the csv module's default dialect, a header row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)
