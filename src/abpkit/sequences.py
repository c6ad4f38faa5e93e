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
restricted copy in between, through a core that sees only a position table
(``_prune_table``).  It skips pairs whose reads run in opposite directions
(one block each) and pairs that already interleave regularly, which the pair
pruning would keep whole (``_prune_pair`` proves it); any other pair is pruned
on the merge by position of its two reads' surviving elements.  Every
comparison the passes make (read directions, longest-monotone ties, the
widest gap and its tie-break on the element, the walks) comes out the same on
any naming of the elements that increases along the first read.  So pruning
in place gives the sets of restricting to the per-read-monotone subset first,
which relabels by first occurrence; and the identity test prunes its raw
padded read order, each element named by the position of its first read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby
from operator import gt, lt
from typing import Iterable, Sequence


class SequenceError(ValueError):
    """A sequence does not satisfy the structural precondition of an operation."""


def _direction(vals: Sequence) -> str | None:
    """'inc', 'dec', 'flat' (fewer than two entries), or None if not monotone."""
    if len(vals) < 2:
        return "flat"
    if all(map(lt, vals, vals[1:])):
        return "inc"
    if all(map(gt, vals, vals[1:])):
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


def _monotone_chain(reads: Sequence) -> frozenset:
    """``per_read_monotone_subset`` on each read's elements in order; a read
    holds every element, so it is the chain's input whole until one drops."""
    alive = reads[0] if reads else ()
    for read in reads[1:]:
        vals = read if len(alive) == len(read) else [e for e in read if e in alive]
        alive = set(vals if _direction(vals) else _longest_monotone(vals)[0])
    return frozenset(alive)


def per_read_monotone_subset(S: ReadSequence) -> frozenset:
    """Subset X' of elements with S|X' per-read-monotone, found by chaining a
    longest-monotone extraction through occurrences 2..k.  Guarantees
    |X'| >= n^(1/2^(k-1)); with k = 0 no read drops an element."""
    return _monotone_chain(S._reads or [range(S.n)])


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
    """Pruning step on a read-2 sequence whose reads are monotone in one
    direction, given as its elements in order.  Returns the elements to keep
    so that the restriction is 2-regularly interleaving, at least a third.

    Both reads list the elements in one order, as does every remainder.  The
    element x with the widest gap anchors a block: the majority occurrence
    kind strictly inside the gap (firsts of the elements after x, seconds of
    those before it, as none has both there) selects the members, the rest of
    the spanned interval is erased, and the left and right remainders are
    pruned alike.

    A regularly interleaving sequence is kept whole: its blocks are
    contiguous, so each member of a block of b has gap b and the widest gap
    lies inside one block, at its smallest member: its first if the reads
    increase, its last if they decrease.  The gap then holds only the other
    members' firsts or only their seconds, the block is erased whole, and the
    remainders are the whole blocks on either side.  As the result always
    interleaves regularly, all is kept exactly when the input interleaves.
    """
    kept: set = set()
    todo = [(order, *_positions(order))]
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


def _read_directions(pos: Sequence, elems: Sequence) -> tuple:
    """Each read's direction on the sorted ``elems``, from their positions."""
    return tuple(_direction([p[e] for e in elems]) for p in pos)


def _pair_interleaves(first, second, walk: Sequence) -> bool:
    """Whether reads i < j, monotone on the nonempty ``walk`` (in their order),
    interleave regularly, from positions ``first`` in read i and ``second`` in
    read j.  y opens a block when its i-th occurrence follows the start's j-th
    and must then follow the previous element's j-th: the blocks are forced."""
    start = prev = walk[0]
    for y in walk:
        if first[y] > second[start]:
            if second[prev] > first[y]:
                return False
            start = y
        prev = y
    return True


def _forced_blocks_hold(pos: Sequence, elems: Sequence) -> bool:
    """Whether the entries of the sorted ``elems`` are per-read-monotone and
    regularly interleaving, from the positions alone (see ``prune``)."""
    dirs = _read_directions(pos, elems)
    return None not in dirs and all(
        _pair_interleaves(pos[i], pos[j], elems if dirs[i] == "inc" else elems[::-1])
        for i, j in combinations(range(len(pos)), 2) if dirs[i] == dirs[j] != "flat")


def _prune_table(reads: Sequence, pos: Sequence) -> tuple:
    """``prune`` on a position table: ``reads[c]``, the elements in the order
    of their (c+1)-th occurrences, and ``pos[c][e]``, that occurrence's index."""
    regular = mono = _monotone_chain(reads)
    walk = sorted(mono)
    dirs = _read_directions(pos, walk)
    if None in dirs and len(reads) > 1:
        raise SequenceError("pair pruning requires monotone reads")
    for i, j in combinations(range(len(reads)), 2):
        if len(walk) > 1 and dirs[i] == dirs[j]:
            ordered = walk if dirs[i] == "inc" else walk[::-1]
            if not _pair_interleaves(pos[i], pos[j], ordered):
                merged = sorted((p[e], e) for p in (pos[i], pos[j]) for e in ordered)
                regular = frozenset(_prune_pair([e for _, e in merged]))
                walk = [e for e in walk if e in regular]
    if not _forced_blocks_hold(pos, walk):
        raise RuntimeError("pruned subset failed its structural checks")
    return mono, regular


def prune(S: ReadSequence) -> tuple:
    """Both pruning passes on S's own elements (exact, see the module notes):
    (X', X'') with X' the per-read-monotone subset and X'' the
    regularly-interleaving subset of S|X'.

    Each read's direction on X' is taken once.  Reads 2..k are monotone on X'
    by construction, read 1 unless S was relabeled (then, with k >= 2,
    SequenceError), and a subset keeps a monotone read's direction.  An
    opposite-direction pair is one block: if read i increases, the i-th
    occurrence of the largest element ends it and the j-th starts read j.  A
    same-direction pair is skipped if its forced-block walk passes, else
    pruned.  S|X'' must have monotone reads and pass that walk for every
    same-direction pair, or RuntimeError is raised."""
    pos = [[0] * S.n for _ in range(S.k)]
    for t, (e, c) in enumerate(S.entries):
        pos[c - 1][e] = t
    return _prune_table(S._reads or [range(S.n)], pos)


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
    increasing-to-decreasing border and the smallest at the opposite one.

    A segment is a maximal run of consecutive reads of one direction, and
    the structure it needs always holds.  With n >= 2 an increasing read runs
    from element 0 to n - 1 and a decreasing one back, and read j meets each
    element at its j-th occurrence.  Say read i increases and read i + 1
    decreases.  Every read j <= i ends by read i's end, the i-th occurrence
    of n - 1: it ends at the j-th occurrence of n - 1, or of 0, which
    precedes read i's start.  Every read j > i starts at or after read
    i + 1's start, the next occurrence of n - 1: at the j-th of n - 1, or of
    0, which follows read i + 1's end.  No entry lies between the two, so the
    runs keep to their sides of a border on n - 1.  Swap 0 and n - 1 for a
    decreasing read followed by an increasing one."""
    if not S.is_per_read_monotone():
        raise SequenceError("input sequence is not per-read-monotone")
    if not S.entries:
        return []
    if S.read_direction(1) == "dec":
        raise SequenceError("first read must be increasing")
    if S.n == 1:
        return [Segment(0, len(S.entries), tuple(range(1, S.k + 1)), "inc")]
    starts: dict = {}
    for idx, (_, c) in enumerate(S.entries):
        starts.setdefault(c, idx)
    runs = [(d, tuple(reads)) for d, reads in groupby(range(1, S.k + 1), S.read_direction)]
    ends = [starts[reads[0]] for _, reads in runs[1:]] + [len(S.entries)]
    mirror = tuple(range(S.n - 1, -1, -1))
    return [Segment(starts[reads[0]], end, reads, d, mirror if d == "dec" else None)
            for (d, reads), end in zip(runs, ends)]
