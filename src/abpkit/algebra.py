"""Exact arithmetic foundations: prime fields, sparse multivariate polynomials,
matrices with univariate-polynomial entries, and incremental linear algebra
over F_p.

Field elements are plain ints kept as canonical residues in [0, p).  All
values are immutable after construction and every operation is pure, so
objects can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Iterable, Mapping, Sequence


class GuardExceeded(RuntimeError):
    """A size guard refused an operation that would blow up at desk scale."""


# Deterministic Miller-Rabin: the prime bases 2..41 decide primality exactly
# below 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(m: int) -> bool:
    if m >= _MR_LIMIT:
        raise ValueError(f"modulus {m} is too large to certify as prime")
    if m < 2 or any(m % b == 0 for b in _MR_BASES):
        return m in _MR_BASES
    s = ((m - 1) & (1 - m)).bit_length() - 1     # m - 1 = d * 2^s with d odd
    d = (m - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x != 1 and all(pow(x, 1 << r, m) != m - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p.  Records p so callers can check p > deg(f) preconditions."""

    p: int

    def __post_init__(self) -> None:
        if isinstance(self.p, bool) or not isinstance(self.p, int):
            raise ValueError(f"modulus {self.p!r} is not an integer")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

    def random(self, rng) -> int:
        return rng.randrange(self.p)


DEFAULT_FIELD = PrimeField(101)


@dataclass
class SparsePoly:
    """Multivariate polynomial as a map from dense exponent tuples to nonzero
    coefficients.  This is the brute-force ground-truth representation that
    every symbolic check in the package reduces to.
    """

    field: PrimeField
    num_vars: int
    terms: dict

    def __post_init__(self) -> None:
        p = self.field.p
        clean = {}
        for exps, coeff in self.terms.items():
            exps = tuple(exps)
            if len(exps) != self.num_vars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {self.num_vars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = coeff % p
            if c:
                clean[exps] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, field: PrimeField, num_vars: int, terms: dict) -> "SparsePoly":
        """Wrap a map that is already canonical (tuple keys of length
        num_vars, coefficients in [1, p)) without re-checking it.  Only for
        maps built inside the library; the map is owned by the result."""
        poly = object.__new__(cls)
        poly.field = field
        poly.num_vars = num_vars
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, field: PrimeField, num_vars: int) -> "SparsePoly":
        return cls(field, num_vars, {})

    @classmethod
    def const(cls, field: PrimeField, num_vars: int, c: int) -> "SparsePoly":
        return cls(field, num_vars, {(0,) * num_vars: c})

    @classmethod
    def variable(cls, field: PrimeField, num_vars: int, i: int) -> "SparsePoly":
        if not 0 <= i < num_vars:
            raise ValueError(f"variable index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(num_vars))
        return cls(field, num_vars, {exps: 1})

    @classmethod
    def linear(cls, field: PrimeField, num_vars: int,
               coeffs: Mapping[int, int], const: int = 0) -> "SparsePoly":
        """Linear form sum(coeffs[i] * x_i) + const."""
        terms = {(0,) * num_vars: const}
        for i, c in coeffs.items():
            exps = tuple(1 if j == i else 0 for j in range(num_vars))
            terms[exps] = terms.get(exps, 0) + c
        return cls(field, num_vars, terms)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def individual_degrees(self) -> tuple:
        degs = [0] * self.num_vars
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e > degs[i]:
                    degs[i] = e
        return tuple(degs)

    def coefficient(self, exps: Sequence[int]) -> int:
        return self.terms.get(tuple(exps), 0)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "SparsePoly") -> None:
        if self.field != other.field or self.num_vars != other.num_vars:
            raise ValueError("polynomial field/arity mismatch")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        p = self.field.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            v = (out.get(exps, 0) + c) % p
            if v:
                out[exps] = v
            else:
                out.pop(exps, None)
        return SparsePoly._trusted(self.field, self.num_vars, out)

    def __neg__(self) -> "SparsePoly":
        p = self.field.p
        return SparsePoly._trusted(self.field, self.num_vars,
                                   {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        p = self.field.p
        out: dict = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return SparsePoly._trusted(self.field, self.num_vars,
                                   {e: r for e, c in out.items() if (r := c % p)})

    def scale(self, c: int) -> "SparsePoly":
        p = self.field.p
        c %= p
        if c == 0:
            return SparsePoly._trusted(self.field, self.num_vars, {})
        return SparsePoly._trusted(self.field, self.num_vars,
                                   {e: (c * v) % p for e, v in self.terms.items()})

    # -- substitution / evaluation -----------------------------------------

    def substitute(self, assignment: Mapping[int, int]) -> "SparsePoly":
        """Fix a subset of the variables to field values.  The result keeps the
        same arity but no longer mentions the assigned variables."""
        if not assignment:
            return self
        p = self.field.p
        for i in assignment:
            if not 0 <= i < self.num_vars:
                raise ValueError(f"assigned variable {i} out of range")
        vals = {i: v % p for i, v in assignment.items()}
        out: dict = {}
        for exps, c in self.terms.items():
            factor = c
            new = list(exps)
            for i, v in vals.items():
                e = exps[i]
                if e:
                    factor = (factor * pow(v, e, p)) % p
                    new[i] = 0
            if factor == 0:
                continue
            key = tuple(new)
            t = (out.get(key, 0) + factor) % p
            if t:
                out[key] = t
            else:
                out.pop(key, None)
        return SparsePoly._trusted(self.field, self.num_vars, out)

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.num_vars:
            raise ValueError(f"point length {len(point)} != num_vars {self.num_vars}")
        p = self.field.p
        total = 0
        for exps, c in self.terms.items():
            v = c
            for i, e in enumerate(exps):
                if e:
                    v = (v * pow(point[i] % p, e, p)) % p
            total = (total + v) % p
        return total

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items(), reverse=True):
            factors = []
            if c != 1 or not any(exps):
                factors.append(str(c))
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _strip(coeffs: Iterable[int], p: int) -> tuple:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass
class UniMatrix:
    """Matrix whose entries are univariate polynomials in one shared variable,
    given as coefficient tuples (lowest degree first).  ``var=None`` marks a
    constant matrix that reads nothing; ``padding`` tags identity layers added
    to make every variable read exactly k times."""

    field: PrimeField
    var: int | None
    entries: tuple
    padding: bool = False

    def __post_init__(self) -> None:
        p = self.field.p
        rows = tuple(tuple(_strip(e, p) for e in row) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        if self.var is None:
            for row in rows:
                for e in row:
                    if len(e) > 1:
                        raise ValueError("constant layer has a non-constant entry")
        self.entries = rows

    @property
    def width_in(self) -> int:
        return len(self.entries)

    @property
    def width_out(self) -> int:
        return len(self.entries[0])

    @cached_property
    def degree(self) -> int:
        return max((len(e) - 1 for row in self.entries for e in row if e), default=0)

    @cached_property
    def support(self) -> tuple:
        """Per row, a bitmask of the columns whose entry is nonzero."""
        return tuple(sum(1 << j for j, e in enumerate(row) if e) for row in self.entries)

    @classmethod
    def identity(cls, field: PrimeField, size: int, var: int | None = None,
                 padding: bool = False) -> "UniMatrix":
        rows = tuple(tuple((1,) if i == j else () for j in range(size))
                     for i in range(size))
        return cls(field, var, rows, padding)

    @classmethod
    def constant(cls, field: PrimeField, grid: Sequence[Sequence[int]]) -> "UniMatrix":
        """Constant layer of an int grid; reducing its own entries, it skips validation."""
        p = field.p
        rows, support = [], []
        for row in grid:
            entries, mask = [], 0
            for j, c in enumerate(row):
                r = c % p
                entries.append((r,) if r else ())
                mask |= (r != 0) << j
            rows.append(tuple(entries))
            support.append(mask)
        if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix must be non-empty and not ragged")
        m = object.__new__(cls)
        m.field, m.var, m.entries, m.padding = field, None, tuple(rows), False
        m.degree, m.support = 0, tuple(support)
        return m

    def eval_at(self, value: int) -> tuple:
        """Evaluate every entry at the given field value; returns an int grid."""
        p = self.field.p
        value %= p
        out = []
        for row in self.entries:
            out_row = []
            for coeffs in row:
                acc = 0
                for c in reversed(coeffs):
                    acc = (acc * value + c) % p
                out_row.append(acc)
            out.append(tuple(out_row))
        return tuple(out)

    def to_constant(self, value: int) -> "UniMatrix":
        return UniMatrix.constant(self.field, self.eval_at(value))

    def scale(self, c: int) -> "UniMatrix":
        p = self.field.p
        c %= p
        rows = tuple(tuple(tuple((c * x) % p for x in e) for e in row)
                     for row in self.entries)
        return UniMatrix(self.field, self.var, rows, self.padding)


class LinearSolver:
    """Incremental Gaussian elimination over F_p on sparse vectors.

    Vectors are dicts mapping sortable keys (column labels) to nonzero
    coefficients.  Pivoting is deterministic: the pivot of a reduced vector is
    its smallest key, and stored rows keep their pivot as their minimum key.
    When ``track_coords`` is set, every stored row remembers its expansion in
    terms of the originally added (independent) vectors, so members of the
    span can be expressed in that basis exactly.
    """

    def __init__(self, field: PrimeField, track_coords: bool = False):
        self.field = field
        self.track_coords = track_coords
        self._pivots: dict = {}          # pivot key -> row index
        self._rows: list = []            # normalized sparse vectors
        self._coords: list = []          # row index -> dict basis_index -> coeff
        self.rank = 0

    def _reduce(self, vec: Mapping) -> tuple:
        p = self.field.p
        residual = {k: v % p for k, v in vec.items() if v % p}
        combo: dict = {}
        while residual:
            k = min(residual)
            idx = self._pivots.get(k)
            if idx is None:
                break
            c = residual[k]
            combo[idx] = (combo.get(idx, 0) + c) % p
            row = self._rows[idx]
            for kk, vv in row.items():
                t = (residual.get(kk, 0) - c * vv) % p
                if t:
                    residual[kk] = t
                else:
                    residual.pop(kk, None)
        return residual, combo

    def try_add(self, vec: Mapping) -> bool:
        """Add a vector if independent of the current span.  Returns True when
        the vector was added (it extends the basis)."""
        residual, combo = self._reduce(vec)
        if not residual:
            return False
        p = self.field.p
        pivot = min(residual)
        inv = self.field.inv(residual[pivot])
        row = {k: (inv * v) % p for k, v in residual.items()}
        if self.track_coords:
            coords = {self.rank: inv}
            for idx, c in combo.items():
                for b, v in self._coords[idx].items():
                    t = (coords.get(b, 0) - inv * c * v) % p
                    if t:
                        coords[b] = t
                    else:
                        coords.pop(b, None)
            self._coords.append(coords)
        self._pivots[pivot] = len(self._rows)
        self._rows.append(row)
        self.rank += 1
        return True

    def express(self, vec: Mapping, size: int | None = None) -> list | None:
        """Dense coefficient list c of vec over the added basis, vec ==
        sum c[b] * basis[b], padded to ``size``; None if vec is outside the span."""
        if not self.track_coords:
            raise ValueError("solver was not built with track_coords")
        residual, combo = self._reduce(vec)
        if residual:
            return None
        p = self.field.p
        out = [0] * (self.rank if size is None else size)
        for idx, c in combo.items():
            for b, v in self._coords[idx].items():
                out[b] = (out[b] + c * v) % p
        return out
