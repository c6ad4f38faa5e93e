"""Read-sequence combinatorics against brute-force oracles.

The oracles here are deliberately independent of the library code paths:
monotone subsequences by subset enumeration, regular interleaving by
exhaustive search over all set partitions.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from abpkit import sequences
from abpkit.corpus import (random_per_read_monotone_sequence,
                           random_read_k_sequence)
from abpkit.sequences import (ReadSequence, SequenceError, concat_decompose,
                              is_regularly_interleaving, longest_monotone,
                              per_read_monotone_subset, prune,
                              regularly_interleaving_subset)


# -- independent oracles -------------------------------------------------------


def brute_longest_monotone_length(vals):
    best = 1 if vals else 0
    m = len(vals)
    for mask in range(1, 2 ** m):
        picked = [vals[i] for i in range(m) if mask >> i & 1]
        if all(a < b for a, b in zip(picked, picked[1:])) or \
           all(a > b for a, b in zip(picked, picked[1:])):
            best = max(best, len(picked))
    return best


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def brute_two_regular(seq: ReadSequence) -> bool:
    """Definition check by exhaustive search over block partitions: for some
    partition, every block's first occurrences are consecutive, its second
    occurrences are consecutive, and the seconds start right after the
    firsts end."""
    assert seq.k == 2
    positions = {entry: i for i, entry in enumerate(seq.entries)}
    positions1 = {e: positions[(e, 1)] for e in range(seq.n)}
    positions2 = {e: positions[(e, 2)] for e in range(seq.n)}
    for part in set_partitions(range(seq.n)):
        ok = True
        for block in part:
            p1 = sorted(positions1[e] for e in block)
            p2 = sorted(positions2[e] for e in block)
            if p1[-1] - p1[0] != len(block) - 1 or p2[-1] - p2[0] != len(block) - 1:
                ok = False
                break
            if p2[0] != p1[-1] + 1:
                ok = False
                break
        if ok:
            return True
    return False


def scan_direction(vals):
    """Direction of a list of distinct values: 'flat', 'inc', 'dec' or None."""
    if len(vals) < 2:
        return "flat"
    if vals == sorted(vals):
        return "inc"
    return "dec" if vals == sorted(vals, reverse=True) else None


def all_read2_sequences(n):
    """Every read-2 order over n elements (canonical labels)."""
    base = [v for v in range(n) for _ in range(2)]
    seen = set()
    for perm in itertools.permutations(base):
        if perm in seen:
            continue
        seen.add(perm)
        try:
            yield ReadSequence.from_order(perm)
        except ValueError:
            pass


def canonical_orders(n, k):
    """Every read-k order over n elements whose first occurrences come in
    increasing order: each read-k sequence once, labeled as ``from_order``
    labels it."""
    counts = [0] * n
    order = []

    def extend(started):
        if len(order) == n * k:
            yield tuple(order)
            return
        for e in range(min(started + 1, n)):
            if counts[e] < k:
                counts[e] += 1
                order.append(e)
                yield from extend(max(started, e + 1))
                counts[e] -= 1
                order.pop()
    return extend(0)


# -- restriction ----------------------------------------------------------------


class TestProjectRestrict:
    def test_restrict_single_element(self):
        s = ReadSequence.from_order([0, 1, 0, 1])
        r = s.restrict({0})
        assert r.entries == ((0, 1), (0, 2))
        assert r.labels == (0,)

    def test_restrict_full_set_identity(self):
        s = ReadSequence.from_order([0, 1, 2, 1, 0, 2])
        r = s.restrict({0, 1, 2})
        assert r.entries == s.entries

    def test_restrict_preserves_read_k_all_subsets(self):
        rng = random.Random(5)
        s = random_read_k_sequence(rng, 6, 2)  # length 12
        for size in range(0, 7):
            for keep in itertools.combinations(range(6), size):
                r = s.restrict(keep)
                assert r.n == size
                if size:
                    assert r.k == 2
                counts = {}
                for e, _ in r.entries:
                    counts[e] = counts.get(e, 0) + 1
                assert all(c == 2 for c in counts.values())

    def test_restrict_relabels_canonically(self):
        s = ReadSequence.from_order([0, 1, 2, 2, 1, 0])
        r = s.restrict({1, 2})
        assert r.read_order(1) == list(range(r.n))
        assert r.labels == (1, 2)


class TestBuiltOnce:
    """``from_order`` and ``restrict`` skip ``__post_init__`` and cache each
    occurrence's read: both must match the validating constructor and a
    fresh scan of the entries."""

    @staticmethod
    def check(s):
        assert s == ReadSequence(s.n, s.k, s.entries, s.labels)
        scans = [[e for e, c in s.entries if c == i] for i in range(s.k + 2)]
        for i, scan in enumerate(scans):
            assert s.read_order(i) == scan
            assert s.read_direction(i) == scan_direction(scan)
        assert s.is_per_read_monotone() == \
            all(scan_direction(scan) is not None for scan in scans)

    def test_matches_validating_constructor(self):
        rng = random.Random(11)
        self.check(ReadSequence.from_order([]))
        for trial in range(60):
            n, k = rng.randint(1, 6), rng.randint(1, 4)
            if trial % 2:
                s = random_per_read_monotone_sequence(rng, n, k)
            else:
                order = [v for v in rng.sample(range(100), n) for _ in range(k)]
                rng.shuffle(order)
                s = ReadSequence.from_order(order)
            s.read_order(1)         # a warm cache must not leak into restrictions
            self.check(s)
            for keep in (set(), set(range(n)), {e for e in range(n) if rng.random() < 0.5}):
                r = s.restrict(keep)
                self.check(r)
                assert r.labels == tuple(s.labels[e] for e in sorted(keep))

    def test_read_order_is_a_fresh_list(self):
        s = ReadSequence.from_order([0, 1, 2, 1, 0, 2])
        s.read_order(2).append(7)
        assert s.read_order(2) == [1, 0, 2]


class TestRefusals:
    """Each structural refusal of a sequence, reached from the public API."""

    @pytest.mark.parametrize("n, k, entries, labels, message", [
        (2, 1, [(0, 1), (1, 1)], (0,), "^labels length must equal n$"),
        (2, 1, [(0, 1), (2, 1)], (0, 1), "^element 2 out of range$"),
        (1, 1, [(0, 1), (0, 1)], (0,), "^occurrence counter 1 for element 0 out of order$"),
        (2, 2, [(0, 1), (1, 1), (0, 2)], (0, 1), "^every element must occur exactly k times$"),
    ])
    def test_constructor(self, n, k, entries, labels, message):
        with pytest.raises(ValueError, match=message):
            ReadSequence(n, k, entries, labels)

    @pytest.mark.parametrize("order", [[0, 1, 0], [5, 5, 7, 7, 7]])
    def test_order_not_read_k(self, order):
        with pytest.raises(ValueError, match="^order is not read-k: unequal occurrence counts$"):
            ReadSequence.from_order(order)

    def test_restrict_unknown_element(self):
        s = ReadSequence.from_order([4, 9, 9, 4])      # elements 0 and 1, labels 4 and 9
        with pytest.raises(ValueError, match="^restriction set contains unknown elements$"):
            s.restrict({0, 4})


# -- longest monotone -------------------------------------------------------------


class TestLongestMonotone:
    def test_example_24153(self):
        vals, direction = longest_monotone([2, 4, 1, 5, 3])
        assert vals == [2, 4, 5]
        assert direction == "increasing"
        assert len(vals) == brute_longest_monotone_length([2, 4, 1, 5, 3])

    def test_already_monotone(self):
        for m in range(1, 7):
            vals, direction = longest_monotone(list(range(1, m + 1)))
            assert vals == list(range(1, m + 1))
            assert direction == "increasing"

    def test_all_length5_permutations_reach_3(self):
        for perm in itertools.permutations(range(5)):
            vals, _ = longest_monotone(list(perm))
            assert len(vals) >= 3

    def test_matches_brute_force_all_perms_to_6(self):
        for m in range(0, 7):
            for perm in itertools.permutations(range(m)):
                vals, _ = longest_monotone(list(perm))
                assert len(vals) == brute_longest_monotone_length(list(perm))

    def test_sqrt_floor_small(self):
        for m in range(1, 7):
            for perm in itertools.permutations(range(m)):
                vals, _ = longest_monotone(list(perm))
                assert len(vals) >= math.isqrt(m - 1) + 1 or \
                    len(vals) * len(vals) >= m

    def test_tie_breaks_toward_increasing_then_lex(self):
        for m in range(1, 6):
            for perm in itertools.permutations(range(m)):
                vals, direction = longest_monotone(list(perm))
                # oracle: all maximum monotone subsequences by index set
                best_len = brute_longest_monotone_length(list(perm))
                inc_sets = []
                dec_sets = []
                for mask in range(1, 2 ** m):
                    idx = [i for i in range(m) if mask >> i & 1]
                    picked = [perm[i] for i in idx]
                    if len(picked) != best_len:
                        continue
                    if all(a < b for a, b in zip(picked, picked[1:])):
                        inc_sets.append(idx)
                    if all(a > b for a, b in zip(picked, picked[1:])):
                        dec_sets.append(idx)
                if inc_sets:
                    want = [perm[i] for i in min(inc_sets)]
                    assert direction == "increasing" and vals == want
                else:
                    want = [perm[i] for i in min(dec_sets)]
                    assert direction == "decreasing" and vals == want

    def test_distinct_required(self):
        with pytest.raises(ValueError):
            longest_monotone([1, 1, 2])


# -- per-read monotone pruning ------------------------------------------------------


class TestPerReadMonotone:
    def test_already_monotone_second_read_keeps_everything(self):
        s = ReadSequence.from_order([0, 1, 2, 0, 1, 2])
        assert per_read_monotone_subset(s) == frozenset(range(3))

    def test_example_n4(self):
        # second read order (x2, x4, x1, x3)
        s = ReadSequence.from_order([0, 1, 2, 3, 1, 3, 0, 2])
        keep = per_read_monotone_subset(s)
        assert len(keep) >= 2
        assert s.restrict(keep).is_per_read_monotone()

    def test_bound_and_checker_1000_random(self):
        # module invariant: 1000 random read-2 and read-3 sequences, n <= 20
        rng = random.Random(6)
        for _ in range(1000):
            n = rng.randint(1, 20)
            k = rng.choice([2, 3])
            s = random_read_k_sequence(rng, n, k)
            keep = per_read_monotone_subset(s)
            assert s.restrict(keep).is_per_read_monotone()
            assert len(keep) >= n ** (1.0 / 2 ** (k - 1)) - 1e-9

    def test_read3_n16(self):
        rng = random.Random(7)
        s = random_read_k_sequence(rng, 16, 3)
        keep = per_read_monotone_subset(s)
        assert len(keep) >= 2  # 16^(1/4)
        assert s.restrict(keep).is_per_read_monotone()


# -- regular interleaving -----------------------------------------------------------


class TestIsRegularlyInterleaving:
    def test_figure_pattern(self):
        # blocks read as (firsts of B1)(seconds of B1)(firsts of B2)...
        s = ReadSequence.from_order([0, 1, 0, 1, 2, 3, 2, 3])
        ok, witness = is_regularly_interleaving(s)
        assert ok
        assert witness[(1, 2)] == ((0, 1), (2, 3))

    def test_simple_true(self):
        ok, witness = is_regularly_interleaving(
            ReadSequence.from_order([0, 1, 0, 1]))
        assert ok and witness[(1, 2)] == ((0, 1),)

    def test_simple_false(self):
        ok, witness = is_regularly_interleaving(
            ReadSequence.from_order([0, 1, 1, 2, 0, 2]))
        assert not ok
        assert witness["failing_pair"] == (1, 2)

    def test_matches_partition_oracle_exhaustive(self):
        for n in (1, 2, 3):
            for s in all_read2_sequences(n):
                assert is_regularly_interleaving(s)[0] == brute_two_regular(s)

    def test_matches_partition_oracle_random_s4_s5(self):
        rng = random.Random(8)
        for _ in range(300):
            s = random_read_k_sequence(rng, rng.choice([4, 5]), 2)
            assert is_regularly_interleaving(s)[0] == brute_two_regular(s)

    def test_read3_pairwise_definition(self):
        s = ReadSequence.from_order([0, 1, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3])
        ok, witness = is_regularly_interleaving(s)
        assert ok
        assert set(witness) == {(1, 2), (1, 3), (2, 3)}


class TestRegularlyInterleavingSubset:
    def test_decreasing_second_read_keeps_all(self):
        s = ReadSequence.from_order([0, 1, 2, 2, 1, 0])
        assert regularly_interleaving_subset(s) == frozenset(range(3))

    def test_requires_per_read_monotone(self):
        s = ReadSequence.from_order([0, 1, 2, 1, 0, 2])
        with pytest.raises(SequenceError):
            regularly_interleaving_subset(s)

    def test_output_passes_checker_and_bound_read2(self):
        # module invariant: 500 random per-read-monotone inputs, s <= 12
        rng = random.Random(9)
        for _ in range(500):
            n = rng.randint(1, 12)
            s = random_per_read_monotone_sequence(rng, n, 2)
            keep = regularly_interleaving_subset(s)
            assert len(keep) * 3 >= n
            restricted = s.restrict(keep)
            assert restricted.is_per_read_monotone()
            assert is_regularly_interleaving(restricted)[0]

    def test_output_passes_checker_read3(self):
        rng = random.Random(10)
        for _ in range(120):
            n = rng.randint(1, 10)
            s = random_per_read_monotone_sequence(rng, n, 3)
            keep = regularly_interleaving_subset(s)
            assert len(keep) >= 1
            restricted = s.restrict(keep)
            assert restricted.is_per_read_monotone()
            assert is_regularly_interleaving(restricted)[0]

    def test_downward_closure_exhaustive_small(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(80):
            n = rng.randint(2, 6)
            k = rng.choice([2, 3])
            s = random_per_read_monotone_sequence(rng, n, k)
            keep = regularly_interleaving_subset(s)
            base = s.restrict(keep)
            if base.n == 0:
                continue
            for size in range(base.n + 1):
                for sub in itertools.combinations(range(base.n), size):
                    if not sub:
                        continue
                    r = base.restrict(sub)
                    assert r.is_per_read_monotone()
                    assert is_regularly_interleaving(r)[0]
                    checked += 1
        assert checked > 100

    def test_downward_closure_random_to_12(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(6, 12)
            k = rng.choice([2, 3])
            s = random_per_read_monotone_sequence(rng, n, k)
            keep = regularly_interleaving_subset(s)
            base = s.restrict(keep)
            if base.n <= 1:
                continue
            sub = [e for e in range(base.n) if rng.random() < 0.6]
            if not sub:
                continue
            r = base.restrict(sub)
            assert r.is_per_read_monotone()
            assert is_regularly_interleaving(r)[0]


class TestPairSkipLemma:
    """``prune`` skips a same-direction pair whose forced-block walk passes,
    as ``_prune_pair`` keeps such a pair whole.  Checked on every read-2 order
    with both reads increasing for n <= 8, and on each one mirrored so that
    both decrease: the pair pruning keeps all elements, and the walk passes,
    exactly when the block parse finds a partition."""

    @staticmethod
    def increasing_orders(n):
        """Read-2 orders whose two reads both list 0..n-1 in increasing order."""
        def extend(firsts, seconds):
            if seconds == n:
                yield ()
                return
            if firsts < n:
                for rest in extend(firsts + 1, seconds):
                    yield (firsts,) + rest
            if seconds < firsts:
                for rest in extend(firsts, seconds + 1):
                    yield (seconds,) + rest
        return extend(0, 0)

    def test_whole_exactly_when_regular(self):
        seen = Counter()
        for n in range(1, 9):
            for order in self.increasing_orders(n):
                for walk in (range(n), range(n - 1, -1, -1)):
                    named = [walk[e] for e in order]      # mirrored on the second walk
                    first, second = sequences._positions(named)
                    pairs = [(e, 1 if first[e] == t else 2) for t, e in enumerate(named)]
                    regular = sequences._two_regular_blocks(pairs) is not None
                    assert (sequences._prune_pair(named) == set(range(n))) == regular
                    assert sequences._pair_interleaves(first, second, walk) == regular
                    seen[walk.step, regular] += 1
        assert seen[1, True] + seen[1, False] == seen[-1, True] + seen[-1, False] == 2055
        assert min(seen.values()) > 0


class TestPruneRefusesCorruptedResults:
    """A pair pruning or a monotone subset that keeps too much, or a pair
    skipped that does not interleave regularly, still makes ``prune`` raise:
    its closing walk refuses the first and the last, its direction check the
    second.  Only a patched helper hands back such a set or skips such a
    pair."""

    @pytest.mark.parametrize("entries", [
        # both reads increasing, firsts 0 1 then 0's second: 1 1 2 1 2 2
        [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)],
        # the same pattern with both reads decreasing
        [(2, 1), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)],
    ])
    def test_pair_pruning_that_keeps_everything(self, monkeypatch, entries):
        s = ReadSequence(3, 2, entries, (0, 1, 2))
        assert not is_regularly_interleaving(s)[0]
        assert len(prune(s)[1]) < 3
        monkeypatch.setattr(sequences, "_prune_pair", set)
        with pytest.raises(RuntimeError, match="^pruned subset failed its structural checks$"):
            prune(s)

    def test_monotone_subset_that_keeps_everything(self, monkeypatch):
        s = ReadSequence.from_order([0, 1, 2, 1, 2, 0])      # read 2: 1 2 0
        assert s.read_direction(2) is None
        monkeypatch.setattr(sequences, "_monotone_chain", lambda reads: frozenset(reads[0]))
        with pytest.raises(SequenceError, match="^pair pruning requires monotone reads$"):
            prune(s)

    def test_pair_skip_that_passes_an_irregular_pair(self, monkeypatch):
        s = ReadSequence.from_order([0, 1, 0, 2, 1, 2])     # reads 1 and 2 increasing
        assert not is_regularly_interleaving(s)[0]
        walks = []
        walk = sequences._pair_interleaves

        def skip_first_pair(*args):
            walks.append(walk(*args))
            return len(walks) == 1 or walks[-1]
        monkeypatch.setattr(sequences, "_pair_interleaves", skip_first_pair)
        with pytest.raises(RuntimeError, match="^pruned subset failed its structural checks$"):
            prune(s)
        assert walks == [False, False]


# -- concatenation decomposition -------------------------------------------------------


class TestConcatDecompose:
    def test_all_increasing_single_segment(self):
        s = ReadSequence.from_order([0, 1, 2, 0, 1, 2])
        segs = concat_decompose(s)
        assert len(segs) == 1
        assert segs[0].reads == (1, 2)
        assert segs[0].direction == "inc"

    def test_inc_then_dec_border_is_largest(self):
        s = ReadSequence.from_order([0, 1, 2, 2, 1, 0])
        segs = concat_decompose(s)
        assert [(g.start, g.end, g.direction) for g in segs] == \
            [(0, 3, "inc"), (3, 6, "dec")]
        # border element shared and equal to the largest element
        assert s.entries[2][0] == s.entries[3][0] == 2
        assert segs[1].reversal == (2, 1, 0)

    def test_three_alternations(self):
        # reads: inc, dec, inc over 2 elements
        s = ReadSequence.from_order([0, 1, 1, 0, 0, 1])
        segs = concat_decompose(s)
        assert [g.direction for g in segs] == ["inc", "dec", "inc"]
        assert [g.reads for g in segs] == [(1,), (2,), (3,)]

    def test_segments_cover_and_alternate_random(self):
        rng = random.Random(12)
        for _ in range(150):
            n = rng.randint(2, 8)
            k = rng.choice([2, 3, 4])
            s = random_per_read_monotone_sequence(rng, n, k)
            segs = concat_decompose(s)
            assert segs[0].start == 0 and segs[-1].end == len(s.entries)
            for a, b in zip(segs, segs[1:]):
                assert a.end == b.start and a.direction != b.direction
            covered = sorted(i for g in segs for i in g.reads)
            assert covered == list(range(1, k + 1))

    def test_rejects_non_monotone(self):
        s = ReadSequence.from_order([0, 1, 2, 1, 0, 2])
        with pytest.raises(SequenceError):
            concat_decompose(s)

    def test_rejects_decreasing_first_read(self):
        # from_order makes the first read increasing; the constructor need not
        s = ReadSequence(2, 2, [(1, 1), (0, 1), (0, 2), (1, 2)], (0, 1))
        with pytest.raises(SequenceError, match="^first read must be increasing$"):
            concat_decompose(s)

    def test_empty_sequence_has_no_segments(self):
        assert concat_decompose(ReadSequence.from_order([])) == []
        assert concat_decompose(ReadSequence(0, 2, (), ())) == []
        assert concat_decompose(ReadSequence(3, 0, (), (0, 1, 2))) == []

    def test_structure_holds_on_every_small_sequence(self):
        """What the refusals that ``concat_decompose``'s proof removed
        checked, on each of the 1,987 per-read-monotone sequences with
        n * k <= 12: every read lies inside one segment, the directions
        alternate from "inc", and every border sits on n - 1 after an
        increasing segment and on 0 after a decreasing one."""
        seen = Counter()
        for n in range(1, 13):
            for k in range(1, 12 // n + 1):
                for order in canonical_orders(n, k):
                    s = ReadSequence.from_order(order)
                    if not s.is_per_read_monotone():
                        continue
                    segs = concat_decompose(s)
                    seen[min(len(segs), 3)] += 1
                    assert [i for g in segs for i in g.reads] == list(range(1, k + 1))
                    assert [g.direction for g in segs] == ["inc", "dec"] * (len(segs) // 2) \
                        + ["inc"] * (len(segs) % 2)
                    assert (segs[0].start, segs[-1].end) == (0, len(s.entries))
                    for g in segs:
                        assert all(s.read_direction(i) in (g.direction, "flat") for i in g.reads)
                        assert {c for _, c in s.entries[g.start:g.end]} == set(g.reads)
                    for a, b in zip(segs, segs[1:]):
                        border = n - 1 if a.direction == "inc" else 0
                        assert a.end == b.start
                        assert s.entries[a.end - 1][0] == s.entries[b.start][0] == border
        assert sum(seen.values()) == 1987 and min(seen[1], seen[2], seen[3]) > 0
