"""Exact arithmetic foundations: prime fields, sparse multivariate polynomials,
matrices with univariate-polynomial entries, and incremental linear algebra
over F_p.

Field elements are plain ints kept as canonical residues in [0, p).  All
values are immutable after construction and every operation is pure, so
objects can be shared freely between workers.

A polynomial keys each monomial by one packed int, its exponents side by side
in bit fields as wide as per-variable degree bounds (packed exponent vectors,
Monagan and Pearce 2007): multiplying monomials adds keys, fixing a variable
masks its field, and the keys of one layout sort like exponent tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from operator import add, lshift
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


class Layout:
    """Where each variable's exponent sits in a packed monomial key: variable
    v gets a bit field of ``bounds[v].bit_length()`` bits, bounds[v] an upper
    bound on its exponent, so the field never overflows.  Variable 0 has the
    highest field, so the keys of one layout sort like exponent tuples."""

    __slots__ = ("bounds", "widths", "offsets")

    def __init__(self, bounds: Iterable[int]):
        self.bounds = tuple(bounds)
        self.widths = tuple(map(int.bit_length, self.bounds))
        self.offsets = tuple([*accumulate(reversed(self.widths), initial=0)][-2::-1])

    def field(self, v: int) -> tuple:
        """(offset, mask) of variable v: its exponent in key is key >> offset & mask."""
        return self.offsets[v], (1 << self.widths[v]) - 1

    def fields(self, variables: Iterable[int]) -> int:
        """The bits of the given variables' fields, as one mask."""
        return sum(((1 << self.widths[v]) - 1) << self.offsets[v] for v in variables)

    def pack(self, exps: Sequence[int]) -> int:
        return sum(map(lshift, exps, self.offsets))

    def unpack(self, key: int) -> tuple:
        return tuple((key >> off) & ((1 << w) - 1) for off, w in zip(self.offsets, self.widths))

    def join(self, other: "Layout") -> "Layout":
        """The narrowest layout holding the monomials of both."""
        if self.bounds == other.bounds:
            return self
        return Layout(map(max, self.bounds, other.bounds))

    def repack(self, terms: dict, other: "Layout") -> dict:
        """``terms`` with its keys moved into ``other``, which must hold every
        exponent with no field lower than here, as ``join`` and summed bounds
        do.  A key moves one field at a time, a mask and a shift each; the map
        itself comes back when the widths match, so no field moves."""
        if self.widths == other.widths:
            return terms
        moves = [(((1 << w) - 1) << off, to - off)
                 for w, off, to in zip(self.widths, self.offsets, other.offsets) if w]
        return {sum([(k & bits) << shift for bits, shift in moves]): c
                for k, c in terms.items()}


def _check_int(value, what) -> None:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")


class SparsePoly:
    """Multivariate polynomial as a map from packed monomial keys to nonzero
    coefficients, with the ``Layout`` that reads the keys.  This is the
    brute-force ground-truth representation that every symbolic check in the
    package reduces to.  Exponent tuples appear only at the boundary: the
    constructor takes them, and ``terms`` and ``str`` give them out.
    """

    __slots__ = ("field", "num_vars", "packed", "layout")
    __hash__ = None

    def __init__(self, field: PrimeField, num_vars: int, terms: Mapping) -> None:
        """From a map of exponent tuples (or sequences) to int coefficients;
        coefficients are reduced mod p and zeros dropped."""
        p = field.p
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {num_vars}"
                )
            for e in exps:
                _check_int(e, f"exponent in {exps}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            _check_int(coeff, f"coefficient of {exps}")
            c = coeff % p
            if c:
                clean[exps] = c
        # each variable's bound is its largest exponent (0 if it has none)
        layout = Layout(map(max, zip(*clean, [0] * num_vars)))
        self.field, self.num_vars, self.layout = field, num_vars, layout
        self.packed = {layout.pack(exps): c for exps, c in clean.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, field: PrimeField, num_vars: int, packed: dict,
                 layout: Layout) -> "SparsePoly":
        """Wrap a map that is already canonical (keys packed in ``layout``,
        coefficients in [1, p)) without re-checking it.  Only for maps built
        inside the library; the map is owned by the result."""
        poly = object.__new__(cls)
        poly.field, poly.num_vars, poly.packed, poly.layout = field, num_vars, packed, layout
        return poly

    @classmethod
    def zero(cls, field: PrimeField, num_vars: int) -> "SparsePoly":
        return cls._trusted(field, num_vars, {}, Layout((0,) * num_vars))

    @classmethod
    def const(cls, field: PrimeField, num_vars: int, c: int) -> "SparsePoly":
        return cls.linear(field, num_vars, {}, c)

    @classmethod
    def variable(cls, field: PrimeField, num_vars: int, i: int) -> "SparsePoly":
        return cls.linear(field, num_vars, {i: 1})

    @classmethod
    def linear(cls, field: PrimeField, num_vars: int,
               coeffs: Mapping[int, int], const: int = 0) -> "SparsePoly":
        """Linear form sum(coeffs[i] * x_i) + const."""
        p = field.p
        _check_int(const, "constant term")
        bounds = [0] * num_vars
        for i, c in coeffs.items():
            if not 0 <= i < num_vars:
                raise ValueError(f"variable index {i} out of range")
            _check_int(c, f"coefficient of x{i + 1}")
            bounds[i] = int(c % p != 0)
        layout = Layout(bounds)
        packed = {0: r} if (r := const % p) else {}
        for i, c in coeffs.items():
            if r := c % p:
                packed[1 << layout.offsets[i]] = r
        return cls._trusted(field, num_vars, packed, layout)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The map from exponent tuples to coefficients, built on each access."""
        unpack = self.layout.unpack
        return {unpack(key): c for key, c in self.packed.items()}

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def total_degree(self) -> int:
        """The largest sum of a key's fields, taken bit plane by bit plane:
        bit j of every field, counted and weighted by 2^j."""
        lay = self.layout
        degrees = repeat(0, len(self.packed))
        for j in range(max(lay.widths, default=0)):
            plane = sum(1 << (off + j) for off, w in zip(lay.offsets, lay.widths) if w > j)
            degrees = map(add, degrees, map((1 << j).__mul__,
                                            map(int.bit_count, map(plane.__and__, self.packed))))
        return max(degrees, default=0)

    def individual_degrees(self) -> tuple:
        lay = self.layout
        return tuple(max(map(lay.fields((v,)).__and__, self.packed), default=0) >> off
                     if w else 0 for v, (off, w) in enumerate(zip(lay.offsets, lay.widths)))

    def coefficient(self, exps: Sequence[int]) -> int:
        exps = tuple(exps)
        if len(exps) != self.num_vars or any(
                e < 0 or e >> w for e, w in zip(exps, self.layout.widths)):
            return 0
        return self.packed.get(self.layout.pack(exps), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        if self.field != other.field or self.num_vars != other.num_vars \
                or len(self.packed) != len(other.packed):
            return False
        common = self.layout.join(other.layout)
        return (self.layout.repack(self.packed, common)
                == other.layout.repack(other.packed, common))

    def __repr__(self) -> str:
        return f"SparsePoly(field={self.field!r}, num_vars={self.num_vars}, terms={self.terms!r})"

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "SparsePoly") -> None:
        if self.num_vars != other.num_vars or (self.field is not other.field
                                                and self.field != other.field):
            raise ValueError("polynomial field/arity mismatch")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        p = self.field.p
        layout = self.layout.join(other.layout)
        out = dict(self.layout.repack(self.packed, layout))
        get = out.get
        for key, c in other.layout.repack(other.packed, layout).items():
            v = (get(key, 0) + c) % p
            if v:
                out[key] = v
            else:
                del out[key]
        return SparsePoly._trusted(self.field, self.num_vars, out, layout)

    def __neg__(self) -> "SparsePoly":
        p = self.field.p
        return SparsePoly._trusted(self.field, self.num_vars,
                                   {k: p - c for k, c in self.packed.items()}, self.layout)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        """Exponents add, so their bounds do: in the layout of the summed
        bounds, no field of a key sum carries into the next."""
        self._check_compatible(other)
        p = self.field.p
        layout = Layout(map(add, self.layout.bounds, other.layout.bounds))
        right = other.layout.repack(other.packed, layout).items()
        out: dict = {}
        get = out.get
        for k1, c1 in self.layout.repack(self.packed, layout).items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return SparsePoly._trusted(self.field, self.num_vars,
                                   {k: r for k, c in out.items() if (r := c % p)}, layout)

    def scale(self, c: int) -> "SparsePoly":
        p = self.field.p
        c %= p
        if c == 0:
            return SparsePoly._trusted(self.field, self.num_vars, {}, self.layout)
        return SparsePoly._trusted(self.field, self.num_vars,
                                   {k: (c * v) % p for k, v in self.packed.items()},
                                   self.layout)

    # -- substitution / evaluation -----------------------------------------

    def _read_fields(self, values: Mapping[int, int]) -> list:
        """(offset, mask, value mod p) of each variable in ``values`` whose
        field has any bits."""
        p = self.field.p
        lay = self.layout
        return [(*lay.field(i), x % p) for i, x in values.items() if lay.widths[i]]

    def substitute(self, assignment: Mapping[int, int]) -> "SparsePoly":
        """Fix a subset of the variables to field values.  The result keeps the
        same arity and layout but no longer mentions the assigned variables.
        The factor a term picks up depends only on its assigned fields, so it
        is computed once for each of their distinct values."""
        if not assignment:
            return self
        for i in assignment:
            if not 0 <= i < self.num_vars:
                raise ValueError(f"assigned variable {i} out of range")
        fields = self._read_fields(assignment)
        if not fields:
            return self
        p = self.field.p
        assigned = sum(m << off for off, m, _ in fields)
        factors: dict = {}
        out: dict = {}
        get = out.get
        for key, c in self.packed.items():
            part = key & assigned
            f = factors.get(part)
            if f is None:
                f = 1
                for off, m, x in fields:
                    f = f * pow(x, (part >> off) & m, p) % p
                factors[part] = f
            if not f:
                continue
            key ^= part
            t = (get(key, 0) + c * f) % p
            if t:
                out[key] = t
            else:
                del out[key]
        return SparsePoly._trusted(self.field, self.num_vars, out, self.layout)

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.num_vars:
            raise ValueError(f"point length {len(point)} != num_vars {self.num_vars}")
        p = self.field.p
        fields = self._read_fields(dict(enumerate(point)))
        total = 0
        for key, c in self.packed.items():
            for off, m, x in fields:
                if e := (key >> off) & m:
                    c = c * pow(x, e, p) % p
            total += c
        return total % p

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.packed:
            return "0"
        parts = []
        for key, c in sorted(self.packed.items(), reverse=True):
            exps = self.layout.unpack(key)
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
    constant matrix that reads nothing.  ``padding`` is an inert tag that no
    abpkit code sets or branches on; it goes once the benchmark's workloads
    stop reading it and passing it on (ROADMAP item 1)."""

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
        residual = {k: r for k, v in vec.items() if (r := v % p)}
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
        if inv != 1:        # the residual is _reduce's own copy: normalize it in place
            for k, v in residual.items():
                residual[k] = inv * v % p
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
        self._rows.append(residual)
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
