"""Read-sequence combinatorics for read-k programs.

A read-k sequence lists, in layer order, which element is read and for which
occurrence (1..k).  Elements are canonical indices 0..n-1 assigned by first
occurrence, so the subsequence of first occurrences is always increasing;
``labels`` remembers what each canonical index originally was (for sequences
extracted from a program, the variable id).

The pruning operations trade elements for structure: first make every
per-occurrence subsequence monotone, then make every pair of occurrences
regularly interleaving.  Both properties are downward-closed, which the
pipeline relies on when it prunes pair by pair.

``prune`` runs both passes on one sequence's own elements and labels, with no
restricted copy in between.  That gives the same sets as restricting to the
per-read-monotone subset first: a restriction relabels its elements by first
occurrence, and first occurrences are already in increasing element order, so
the relabeling is monotone.  Every comparison the passes make (the directions
of the reads, the longest-monotone ties, the pair pruning's widest gap and its
tie-break on the element) comes out the same on either labeling.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence


class SequenceError(ValueError):
    """A sequence does not satisfy the structural precondition of an operation."""


def _direction(vals: Sequence) -> str | None:
    """'inc', 'dec', 'flat' (fewer than two entries), or None if not monotone."""
    if len(vals) < 2:
        return "flat"
    if all(a < b for a, b in zip(vals, vals[1:])):
        return "inc"
    if all(a > b for a, b in zip(vals, vals[1:])):
        return "dec"
    return None


def _reads_of(entries: Sequence, k: int) -> tuple:
    """At index i - 1, the elements in the order of their i-th occurrences."""
    reads = [[] for _ in range(k)]
    for e, c in entries:
        reads[c - 1].append(e)
    return tuple(map(tuple, reads))


@dataclass
class ReadSequence:
    """Read-k sequence over elements 0..n-1, entries as (element, occurrence)."""

    n: int
    k: int
    entries: tuple
    labels: tuple

    def __post_init__(self) -> None:
        self.entries = tuple((int(e), int(c)) for e, c in self.entries)
        self.labels = tuple(self.labels)
        if len(self.labels) != self.n:
            raise ValueError("labels length must equal n")
        counts = [0] * self.n
        for e, c in self.entries:
            if not 0 <= e < self.n:
                raise ValueError(f"element {e} out of range")
            counts[e] += 1
            if c != counts[e]:
                raise ValueError(
                    f"occurrence counter {c} for element {e} out of order"
                )
        if any(c != self.k for c in counts):
            raise ValueError("every element must occur exactly k times")

    @classmethod
    def from_order(cls, order: Iterable) -> "ReadSequence":
        """Build from a raw order of element ids, relabeling so that first
        occurrences come in increasing canonical order; valid as built, so not revalidated."""
        order = list(order)
        first: dict = {}
        labels: list = []
        for x in order:
            if x not in first:
                first[x] = len(labels)
                labels.append(x)
        n = len(labels)
        counts = [0] * n
        entries = []
        for x in order:
            e = first[x]
            counts[e] += 1
            entries.append((e, counts[e]))
        k = counts[0] if counts else 0
        if any(c != k for c in counts):
            raise ValueError("order is not read-k: unequal occurrence counts")
        seq = object.__new__(cls)
        seq.n, seq.k, seq.entries, seq.labels = n, k, tuple(entries), tuple(labels)
        return seq

    # -- accessors -----------------------------------------------------------

    _reads = cached_property(lambda self: _reads_of(self.entries, self.k))

    _directions = cached_property(lambda self: tuple(map(_direction, self._reads)))

    def read_order(self, i: int) -> list:
        """The permutation of elements given by their i-th occurrences."""
        return list(self._reads[i - 1]) if 1 <= i <= self.k else []

    def read_direction(self, i: int) -> str | None:
        return self._directions[i - 1] if 1 <= i <= self.k else "flat"

    def is_per_read_monotone(self) -> bool:
        return None not in self._directions

    # -- restriction ---------------------------------------------------------

    def restrict(self, keep) -> "ReadSequence":
        """Drop all elements outside ``keep`` and relabel by ``from_order`` (not
        validated again); labels compose so they still point at the original ids."""
        keep = set(keep)
        if not keep <= set(range(self.n)):
            raise ValueError("restriction set contains unknown elements")
        seq = ReadSequence.from_order([e for e, _ in self.entries if e in keep])
        seq.labels = tuple(self.labels[t] for t in seq.labels)
        return seq

    def __str__(self) -> str:
        def show(label):
            return f"x{label + 1}" if isinstance(label, int) else str(label)

        return " ".join(show(self.labels[e]) for e, _ in self.entries)


# -- longest monotone subsequence ---------------------------------------------


def _lis_end_lengths(vals: Sequence) -> list:
    """lengths[i] = length of the longest increasing subsequence ending at i."""
    tails: list = []
    out = []
    for v in vals:
        pos = bisect_left(tails, v)
        if pos == len(tails):
            tails.append(v)
        else:
            tails[pos] = v
        out.append(pos + 1)
    return out


def _reconstruct(vals: Sequence, starts: list, length: int) -> list:
    """The lexicographically first monotone chain of ``length`` values,
    ``starts[i]`` the length of the longest one starting at i.  The first
    value after a pick whose count is the one still needed extends the chain:
    with distinct values, one that did not would lie before and beyond a
    successor of the pick and so start a chain one longer than its count."""
    out = []
    need = length
    for v, start in zip(vals, starts):
        if start == need:
            out.append(v)
            need -= 1
            if need == 0:
                break
    return out


def longest_monotone(seq: Sequence) -> tuple:
    """A longest monotone subsequence of a sequence of distinct comparables.

    Returns (values, direction) with direction 'increasing' or 'decreasing'.
    Length is always at least ceil(sqrt(len(seq))).  Ties between the two
    directions go to increasing, and within a direction the lexicographically
    smallest index set is returned.
    """
    vals = list(seq)
    if len(set(vals)) != len(vals):
        raise ValueError("longest_monotone requires distinct values")
    return _longest_monotone(vals)


def _longest_monotone(vals: list) -> tuple:
    """``longest_monotone`` on a list of values known to be distinct."""
    if not vals:
        return [], "increasing"
    rev = vals[::-1]
    inc_starts = _lis_end_lengths([-v for v in rev])[::-1]
    dec_starts = _lis_end_lengths(rev)[::-1]
    inc_len = max(inc_starts)
    dec_len = max(dec_starts)
    if inc_len >= dec_len:
        return _reconstruct(vals, inc_starts, inc_len), "increasing"
    return _reconstruct(vals, dec_starts, dec_len), "decreasing"


# -- per-read-monotone pruning --------------------------------------------------


def per_read_monotone_subset(S: ReadSequence) -> frozenset:
    """Subset X' of elements with S|X' per-read-monotone, found by chaining a
    longest-monotone extraction through occurrences 2..k.  Guarantees
    |X'| >= n^(1/2^(k-1))."""
    alive = range(S.n)
    for read in S._reads[1:]:
        vals = [e for e in read if e in alive]
        alive = set(vals if _direction(vals) else _longest_monotone(vals)[0])
    return frozenset(alive)


# -- regular interleaving --------------------------------------------------------


def _two_regular_blocks(pairs: Sequence) -> tuple | None:
    """Unique block partition of a read-2 pair sequence if it is 2-regularly
    interleaving, else None.  The layout must be [firsts of B1][seconds of B1]
    [firsts of B2][seconds of B2]...; since each block's seconds immediately
    follow its firsts, a greedy left-to-right scan is forced.  Each element
    has one first and then one second, so after whole blocks the next pair
    is a first, the run of firsts has as many seconds after it, and a chunk
    of seconds belongs to elements first read in the run: only a first in
    the chunk can fail the layout."""
    pos = 0
    m = len(pairs)
    blocks = []
    while pos < m:
        block = []
        while pos < m and pairs[pos][1] == 1:
            block.append(pairs[pos][0])
            pos += 1
        if any(c != 2 for _, c in pairs[pos:pos + len(block)]):
            return None
        pos += len(block)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def is_regularly_interleaving(S: ReadSequence):
    """True iff every pairwise occurrence projection is 2-regularly
    interleaving.  Returns (flag, witness) where witness maps each pair (i, j)
    to its block partition, or names the failing pair."""
    return _check_interleaving(S.entries, S.k)


def _check_interleaving(entries: Sequence, k: int):
    """``is_regularly_interleaving`` on entries whose elements need not be 0..n-1."""
    witnesses = {}
    for i, j in combinations(range(1, k + 1), 2):
        pairs = [(e, 1 if c == i else 2) for e, c in entries if c in (i, j)]
        blocks = _two_regular_blocks(pairs)
        if blocks is None:
            return False, {"failing_pair": (i, j)}
        witnesses[(i, j)] = blocks
    return True, witnesses


def _positions(order: Sequence) -> tuple:
    """Each element's position at its first and at its second appearance."""
    first, second = {}, {}
    for t, e in enumerate(order):
        (second if e in first else first)[e] = t
    return first, second


def _prune_pair(order: list) -> set:
    """Pruning step on a read-2 sequence with monotone reads, given as its
    elements in order.  Returns the elements to keep so that the restriction
    is 2-regularly interleaving, at least a third of them.

    Reads in opposite directions make one block.  Otherwise both list the
    elements in one order, as does every remainder.  The element x with the
    widest gap anchors a block: the majority occurrence kind strictly inside
    the gap (firsts of the elements after x, seconds of those before it, as
    none has both there) selects the members, the rest of the spanned
    interval is erased, and the left and right remainders are pruned alike.
    """
    first, second = _positions(order)
    d1, d2 = _direction(list(first)), _direction(list(second))
    if d1 is None or d2 is None:
        raise SequenceError("pair pruning requires monotone reads")
    if d1 != d2 or d1 == "flat":
        return set(first)
    kept: set = set()
    todo = [(order, first, second)]
    while todo:
        order, first, second = todo.pop()
        x = max(first, key=lambda e: (second[e] - first[e], -e))
        lo, hi = first[x], second[x]
        inside = order[lo + 1:hi]
        block = [e for e in inside if first[e] > lo]
        if 2 * len(block) >= len(inside):
            start, end = lo, second[block[-1]] if block else hi
        else:
            block = [e for e in inside if first[e] < lo]
            start, end = first[block[0]], hi
        assert end - start <= 2 * (hi - lo)
        kept |= {x, *block}
        for side in ([e for e in order[:start] if second[e] < start],
                     [e for e in order[end + 1:] if first[e] > end]):
            if side:
                todo.append((side, *_positions(side)))
    return kept


def regularly_interleaving_subset(S: ReadSequence) -> frozenset:
    """Subset X' of a per-read-monotone sequence with S|X' per-read-monotone
    and k-regularly-interleaving, obtained by running the read-2 pruning step
    on every occurrence pair (i, j) in lexicographic order.  Keeps at least a
    1/3 fraction per pair, so |X'| >= s/3^(k^2) overall."""
    if not S.is_per_read_monotone():
        raise SequenceError("input sequence is not per-read-monotone")
    return prune(S)[1]


def prune(S: ReadSequence) -> tuple:
    """Both pruning passes on S's own elements (exact, see the module notes):
    (X', X'') with X' the per-read-monotone subset and X'' the
    regularly-interleaving subset of S|X'.  S|X'' is checked for both
    properties on S's entries, and a failure raises RuntimeError."""
    regular = mono = per_read_monotone_subset(S)
    for i, j in combinations(range(1, S.k + 1), 2):
        regular = _prune_pair([e for e, c in S.entries if c in (i, j) and e in regular])
    regular = frozenset(regular)
    kept = [(e, c) for e, c in S.entries if e in regular]
    if None in map(_direction, _reads_of(kept, S.k)) or not _check_interleaving(kept, S.k)[0]:
        raise RuntimeError("pruned subset failed its structural checks")
    return mono, regular


# -- concatenation decomposition --------------------------------------------------


@dataclass
class Segment:
    """Contiguous piece of a sequence holding complete reads of one direction.
    For decreasing segments ``reversal`` maps each element to its mirror, the
    relabeling that turns the segment's reads increasing."""

    start: int
    end: int
    reads: tuple
    direction: str
    reversal: tuple | None = None


def concat_decompose(S: ReadSequence) -> list:
    """Split a per-read-monotone sequence with increasing first read into
    contiguous segments that alternate all-increasing / all-decreasing reads,
    each read lying wholly inside one segment.  Consecutive segments share
    their border element, which is the largest element at an
    increasing-to-decreasing border and the smallest at the opposite one."""
    if not S.is_per_read_monotone():
        raise SequenceError("input sequence is not per-read-monotone")
    if S.k == 0:
        return []
    if S.read_direction(1) == "dec":
        raise SequenceError("first read must be increasing")
    if S.n == 1:
        return [Segment(0, len(S.entries), tuple(range(1, S.k + 1)), "inc")]
    spans = {}
    for idx, (e, c) in enumerate(S.entries):
        if c not in spans:
            spans[c] = [idx, idx]
        else:
            spans[c][1] = idx
    remaining = set(range(1, S.k + 1))
    segments: list = []
    pos = 0
    expected = "inc"
    mirror = tuple(S.n - 1 - t for t in range(S.n))
    while remaining:
        opposite = [i for i in remaining if S.read_direction(i) != expected]
        boundary = min((spans[i][0] for i in opposite), default=len(S.entries))
        seg_reads = sorted(i for i in remaining if spans[i][1] < boundary)
        if not seg_reads:
            raise SequenceError(
                f"reads do not alternate cleanly at position {boundary}"
            )
        for i in seg_reads:
            if S.read_direction(i) != expected or spans[i][0] < pos:
                raise SequenceError(
                    f"read {i} crosses a segment border; sequence is not decomposable"
                )
        segments.append(Segment(pos, boundary, tuple(seg_reads), expected,
                                mirror if expected == "dec" else None))
        remaining -= set(seg_reads)
        pos = boundary
        expected = "dec" if expected == "inc" else "inc"
    for a, b in zip(segments, segments[1:]):
        last = S.entries[a.end - 1][0]
        first = S.entries[b.start][0]
        border = S.n - 1 if a.direction == "inc" else 0
        if last != first or last != border:
            raise SequenceError(
                f"segment border mismatch between positions {a.end - 1} and {b.start}"
            )
    return segments
