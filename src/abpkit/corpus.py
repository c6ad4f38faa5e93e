"""Seeded random instances: programs, polynomials, and read sequences.

Generators are deterministic given their Random instance.  The program
samplers share one widths-then-layers draw (the cancelling chain aside); the
read-k sampler throttles degrees so that the estimated expansion stays under
a term budget, keeping the brute-force oracle viable on every instance.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from .abp import ObliviousAbp
from .algebra import PrimeField, SparsePoly, UniMatrix
from .evaldim import Roabp
from .sequences import ReadSequence


def _random_entry(rng: random.Random, field: PrimeField, degree: int) -> tuple:
    return tuple(field.random(rng) for _ in range(degree + 1))


def _random_matrix(rng: random.Random, field: PrimeField, var: int,
                   rows: int, cols: int, degree: int) -> UniMatrix:
    grid = tuple(tuple(_random_entry(rng, field, degree) for _ in range(cols))
                 for _ in range(rows))
    return UniMatrix(field, var, grid)


def _random_layers(rng: random.Random, field: PrimeField, order: Sequence[int],
                   width: int, degree: Callable[[int], int]) -> list:
    """Layers reading ``order``: boundary widths drawn in 1..width first, then
    per layer its degree ``degree(v)`` and its entries."""
    dims = [1] + [rng.randint(1, width) for _ in range(len(order) - 1)] + [1]
    return [_random_matrix(rng, field, v, dims[pos], dims[pos + 1], degree(v))
            for pos, v in enumerate(order)]


def _throttled_degree(rng: random.Random, ind: list, v: int,
                      max_entry_degree: int, term_budget: int) -> int:
    """Random degree for the next layer reading v, capped so that the product
    of (individual degree + 1) stays within the term budget; adds it to ind."""
    est = math.prod(d + 1 for d in ind)
    room = max_entry_degree
    while room > 0 and est // (ind[v] + 1) * (ind[v] + room + 1) > term_budget:
        room -= 1
    deg = rng.randint(0, room)
    ind[v] += deg
    return deg


def random_read_k_abp(rng: random.Random, field: PrimeField, n: int, k: int,
                      width: int, max_entry_degree: int = 2,
                      term_budget: int = 30000,
                      zero_kind: str | None = None) -> ObliviousAbp:
    """Random oblivious program with tight read multiplicity k.  Layer degrees
    are throttled so the product of (individual degree + 1) stays within the
    term budget.  ``zero_kind`` forces an identically zero polynomial either
    by a zero layer or by a cancelling two-lane chain."""
    if n < 1 or k < 1 or width < 1:
        raise ValueError("n, k, width must be positive")
    counts = [rng.randint(1, k) for _ in range(n)]
    counts[rng.randrange(n)] = k
    order = [v for v in range(n) for _ in range(counts[v])]
    rng.shuffle(order)
    ind = [0] * n

    if zero_kind == "cancel":
        # Two identical lanes subtracted at the sink: width 2, exactly zero.
        layers = []
        for pos, v in enumerate(order):
            deg = _throttled_degree(rng, ind, v, max_entry_degree, term_budget)
            entry = _random_entry(rng, field, deg)
            if pos == 0:
                layers.append(UniMatrix(field, v, ((entry, entry),)))
            else:
                layers.append(UniMatrix(field, v, ((entry, ()), ((), entry))))
        c = rng.randrange(1, field.p)
        layers.append(UniMatrix(field, None, (((c,),), ((field.p - c,),))))
        return ObliviousAbp(field, n, tuple(layers))

    layers = _random_layers(rng, field, order, width, lambda v: _throttled_degree(
        rng, ind, v, max_entry_degree, term_budget))
    if zero_kind == "zero_layer":
        idx = rng.randrange(len(order))
        old = layers[idx]
        zero = tuple(tuple(() for _ in range(old.width_out))
                     for _ in range(old.width_in))
        layers[idx] = UniMatrix(field, old.var, zero)
    elif zero_kind is not None:
        raise ValueError(f"unknown zero_kind {zero_kind!r}")
    return ObliviousAbp(field, n, tuple(layers))


def random_k_pass_abp(rng: random.Random, field: PrimeField, n: int, k: int,
                      width: int, entry_degree: int = 1) -> ObliviousAbp:
    """Random k-pass program: one layer per variable per pass, the same
    random order each pass."""
    order = list(range(n))
    rng.shuffle(order)
    layers = _random_layers(rng, field, order * k, width,
                            lambda v: rng.randint(0, entry_degree))
    return ObliviousAbp(field, n, tuple(layers))


def random_roabp(rng: random.Random, field: PrimeField, n: int, width: int,
                 entry_degree: int = 1) -> Roabp:
    """Random read-once program in a random order."""
    order = list(range(n))
    rng.shuffle(order)
    layers = _random_layers(rng, field, order, width, lambda v: rng.randint(0, entry_degree))
    abp = ObliviousAbp(field, n, tuple(layers))
    return Roabp(abp, order, tuple(layer.width_out for layer in abp.layers[:-1]))


def random_multilinear_poly(rng: random.Random, field: PrimeField, n: int) -> SparsePoly:
    """Random multilinear polynomial, each monomial present with probability
    0.4; resamples until nonzero."""
    while True:
        terms = {}
        for bits in range(2 ** n):
            if rng.random() < 0.4:
                exps = tuple((bits >> i) & 1 for i in range(n))
                terms[exps] = rng.randrange(1, field.p)
        if terms:
            return SparsePoly(field, n, terms)


def random_read_k_sequence(rng: random.Random, n: int, k: int) -> ReadSequence:
    """Uniformly shuffled read-k order, canonically relabeled."""
    order = [v for v in range(n) for _ in range(k)]
    rng.shuffle(order)
    return ReadSequence.from_order(order)


def random_per_read_monotone_sequence(rng: random.Random, n: int, k: int) -> ReadSequence:
    """Random per-read-monotone read-k sequence built as a random linear
    extension of k monotone reads: the first increasing, each other
    increasing or decreasing with probability 1/2."""
    directions = ["inc"] + [rng.choice(["inc", "dec"]) for _ in range(k - 1)]
    tokens = [list(range(n)) if d == "inc" else list(range(n - 1, -1, -1))
              for d in directions]
    ptr = [0] * k
    placed = [0] * n
    order = []
    while any(ptr[i] < n for i in range(k)):
        ready = []
        for i in range(k):
            if ptr[i] >= n:
                continue
            e = tokens[i][ptr[i]]
            if placed[e] == i:
                ready.append(i)
        i = rng.choice(ready)
        e = tokens[i][ptr[i]]
        order.append(e)
        placed[e] += 1
        ptr[i] += 1
    return ReadSequence.from_order(order)
