"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and are exact (zero tolerance) unless a
criterion states otherwise.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from abpkit.abp import ObliviousAbp
from abpkit.algebra import PrimeField, SparsePoly, UniMatrix
from abpkit.corpus import (random_k_pass_abp, random_multilinear_poly,
                           random_per_read_monotone_sequence,
                           random_read_k_abp, random_read_k_sequence,
                           random_roabp)
from abpkit.evaldim import (k_gap_check, k_pass_to_roabp, roabp_synthesize,
                            roabp_width_profile)
from abpkit.hardpoly import (eliminate_summand, experiment_pn_evaldim,
                             experiment_qn_evaldim)
from abpkit.pit import iteration_bound, iteration_bound_check, read_k_pit
from abpkit.sequences import (ReadSequence, is_regularly_interleaving,
                              longest_monotone, per_read_monotone_subset,
                              regularly_interleaving_subset)

FIELD = PrimeField(101)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _corpus_instance(rng: random.Random, k: int):
    n = rng.randint(1, 8)
    w = rng.randint(1, 3)
    roll = rng.random()
    zero_kind = "cancel" if roll < 0.12 else ("zero_layer" if roll < 0.22 else None)
    return random_read_k_abp(rng, FIELD, n, k, w, max_entry_degree=2,
                             term_budget=20000, zero_kind=zero_kind)


@pytest.fixture(scope="module")
def pit_corpus_run():
    """One shared run of criterion 1's corpus: 200 seeded random read-k
    programs per k in {1,2,3}.  Returns verdict statistics and the per-run
    iteration counts that criterion 10 re-checks."""
    start = time.time()
    total = 0
    mismatches = 0
    zeros = 0
    zero_split = Counter()      # how expand's shortcuts decide the zero programs
    witness_bad = 0
    iteration_log = []
    for k in (1, 2, 3):
        rng = random.Random(1000 + k)
        for i in range(200):
            program = _corpus_instance(rng, k)
            oracle_nonzero = not program.expand().is_zero
            verdict = read_k_pit(program, generator="grid", seed=i)
            total += 1
            zeros += not oracle_nonzero
            if not oracle_nonzero:
                zero_split["no path" if not program.reaches_sink else
                           "relaxation" if program.relaxation_zero else "neither"] += 1
            if verdict.is_zero == oracle_nonzero:
                mismatches += 1
            if not verdict.is_zero and program.evaluate(verdict.witness) == 0:
                witness_bad += 1
            iteration_log.append(
                (program.num_vars, max(k, 1), len(verdict.iterations)))
    elapsed = time.time() - start
    return {"total": total, "mismatches": mismatches, "zeros": zeros,
            "zero_split": zero_split, "witness_bad": witness_bad, "elapsed": elapsed,
            "iteration_log": iteration_log}


def test_criterion_1_pit_exactness(pit_corpus_run):
    """200 seeded random read-k programs per k in {1,2,3} (n<=8, w<=3, d<=2,
    p=101): grid-generator verdict agrees with the expansion oracle in 100%
    of cases, total runtime under 10 minutes."""
    r = pit_corpus_run
    report("1 pit-exactness",
           r["mismatches"] == 0 and r["witness_bad"] == 0 and r["elapsed"] < 600,
           f"{r['total']} instances ({r['zeros']} zero), "
           f"{r['mismatches']} mismatches, {r['witness_bad']} bad witnesses, "
           f"{r['elapsed']:.1f}s < 600s")


def test_criterion_1_zero_programs_by_shortcut(pit_corpus_run):
    """Every zero program of criterion 1 is seen by one of ``expand``'s two
    zero checks: 75 have no source-sink path (a zero layer) and the other 66,
    cancelling lanes, have a zero read-once relaxation."""
    assert pit_corpus_run["zeros"] == 141
    assert pit_corpus_run["zero_split"] == {"no path": 75, "relaxation": 66}


def test_criterion_2_width_collapse():
    """100 random 2-pass programs (n<=6, w<=3): collapse output expands to the
    identical polynomial with realized width <= w^4, zero tolerance."""
    rng = random.Random(2000)
    bad = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        w = rng.randint(1, 3)
        program = random_k_pass_abp(rng, FIELD, n, 2, w, entry_degree=1)
        collapsed = k_pass_to_roabp(program)
        if collapsed.abp.expand() != program.expand():
            bad += 1
        elif collapsed.width > w ** 4:
            bad += 1
    report("2 width-collapse", bad == 0, f"100 programs, {bad} violations")


def test_criterion_3_nisan_tightness():
    """50 multilinear polynomials (n<=5): realized per-cut widths equal the
    evaluation-dimension profile exactly and expansions match."""
    rng = random.Random(3000)
    bad = 0
    for _ in range(50):
        n = rng.randint(1, 5)
        f = random_multilinear_poly(rng, FIELD, n)
        order = list(range(n))
        rng.shuffle(order)
        synthesized = roabp_synthesize(f, order)
        profile = roabp_width_profile(f, order)
        if synthesized.width_profile != profile:
            bad += 1
        elif synthesized.abp.expand() != f:
            bad += 1
    report("3 nisan-tightness", bad == 0, f"50 polynomials, {bad} violations")


def test_criterion_4_erdos_szekeres():
    """Exhaustive over all permutations of lengths 1..8: longest monotone
    subsequence length >= ceil(sqrt(m)); at m=5 the bound is 3."""
    bad = 0
    checked = 0
    for m in range(1, 9):
        floor = math.isqrt(m)
        if floor * floor < m:
            floor += 1
        for perm in itertools.permutations(range(m)):
            vals, _ = longest_monotone(list(perm))
            checked += 1
            if len(vals) < floor:
                bad += 1
            if m == 5 and len(vals) < 3:
                bad += 1
    report("4 erdos-szekeres", bad == 0,
           f"{checked} permutations exhaustive, {bad} violations")


def test_criterion_5_pruning_contracts():
    """500 random read-2 sequences (n<=12) and 200 read-3 (n<=16): the
    monotone subset passes the checker with |X'| >= n^(1/2^(k-1)); the
    regular-interleaving subset passes its checker with |X''| >= s/3 for
    read-2; zero violations."""
    bad = 0
    runs = [(2, 12, 500, random.Random(5002)), (3, 16, 200, random.Random(5003))]
    for k, n_max, count, rng in runs:
        for _ in range(count):
            n = rng.randint(1, n_max)
            seq = random_read_k_sequence(rng, n, k)
            mono = per_read_monotone_subset(seq)
            restricted = seq.restrict(mono)
            if not restricted.is_per_read_monotone():
                bad += 1
                continue
            if len(mono) < n ** (1.0 / 2 ** (k - 1)) - 1e-9:
                bad += 1
                continue
            s = len(mono)
            regular = regularly_interleaving_subset(restricted)
            final = restricted.restrict(regular)
            if not is_regularly_interleaving(final)[0]:
                bad += 1
                continue
            if k == 2 and len(regular) * 3 < s:
                bad += 1
    report("5 pruning-contracts", bad == 0,
           f"700 sequences, {bad} violations")


def _width_one_chain(seq: ReadSequence) -> ObliviousAbp:
    reads = [e for e, _ in seq.entries]
    layers = tuple(UniMatrix(FIELD, v, (((0, 1),),)) for v in reads)
    return ObliviousAbp(FIELD, seq.n, layers)


def test_criterion_6_k_gap_consequence():
    """Every per-read-monotone, k-regularly-interleaving fixture satisfies
    k_gap_check <= k at every prefix, exhaustive over generated fixtures."""
    fixtures = []
    # the figure-style order plus simple block patterns
    fixtures.append(ReadSequence.from_order(
        [0, 1, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3]))
    fixtures.append(ReadSequence.from_order([0, 1, 0, 1, 2, 3, 2, 3]))
    fixtures.append(ReadSequence.from_order([0, 1, 2, 2, 1, 0]))
    rng = random.Random(6000)
    for _ in range(120):
        n = rng.randint(1, 10)
        k = rng.choice([2, 3])
        seq = random_per_read_monotone_sequence(rng, n, k)
        keep = regularly_interleaving_subset(seq)
        if keep:
            fixtures.append(seq.restrict(keep))
    bad = 0
    checked = 0
    for seq in fixtures:
        ok, _ = is_regularly_interleaving(seq)
        if not (ok and seq.is_per_read_monotone()):
            continue
        program = _width_one_chain(seq)
        k = seq.k
        for i in range(1, seq.n + 1):
            checked += 1
            if k_gap_check(program.read_order(), program.num_vars, i) > k:
                bad += 1
    report("6 k-gap-consequence", bad == 0,
           f"{len(fixtures)} fixtures, {checked} prefixes, {bad} violations")


def test_criterion_7_pn_dimension_floor():
    """Exact rank floor eval_dim >= 2^ceil(sqrt(t)) for P_n subsets.  The
    lemma guarantees the floor for t < n; that range is asserted for both
    n=2 and n=3, and for n=3 the full t <= 4 sweep is additionally asserted.
    For n=2 the floor fails outside the lemma's range, as an exact fact:
    P_2 has four variables, and fixing t=3 or t=4 of them leaves exact
    dimensions 3 and 1 against the floor 4, so those rows are reported but
    not asserted."""
    bad_lemma = 0
    bad_n3_full = 0
    rows_total = 0
    for n in (2, 3):
        rep = experiment_pn_evaldim(n, max_size=4, field=FIELD)
        rows_total += len(rep.rows)
        for row in rep.rows:
            if row.lemma_applies and not row.ok:
                bad_lemma += 1
            if n == 3 and not row.ok:
                bad_n3_full += 1
    report("7 pn-dimension-floor", bad_lemma == 0 and bad_n3_full == 0,
           f"{rows_total} subsets (exact ranks), {bad_lemma} violations in "
           f"the t<n range, {bad_n3_full} in the full n=3 sweep")


def test_criterion_8_qn_mechanism():
    """For n in {3,4}, 50 sampled bipartitions (S,T) of the x,y variables
    (|S u T| >= 0.9*2n forces all of them), dimension >= 2^m where m is the
    best matching's S-T cross-edge count, z substituted randomly, 3 trials."""
    bad = 0
    rows = 0
    for n in (3, 4):
        rep = experiment_qn_evaldim(n, pairs=50, trials=3, seed=0)
        rows += len(rep.rows)
        bad += sum(not r.ok for r in rep.rows)
        for r in rep.rows:
            assert len(r.S) + len(r.T) >= math.ceil(0.9 * 2 * n)
    report("8 qn-mechanism", bad == 0, f"{rows} splits, {bad} violations")


def test_criterion_9_elimination_step():
    """50 random c=2 sums of read-once programs (w<=3, n<=6, t<=2): alpha is
    nonzero and annihilates part 1 exactly, and the residual width profile
    stays within w(w+1)."""
    rng = random.Random(9000)
    bad = 0
    for _ in range(50):
        n = rng.randint(3, 6)
        w = rng.randint(1, 3)
        t = rng.randint(1, 2)
        parts = [random_roabp(rng, FIELD, n, w, entry_degree=1)
                 for _ in range(2)]
        result = eliminate_summand(parts, t)
        if not any(result.alpha):
            bad += 1
            continue
        f1 = parts[0].abp.expand()
        combo = SparsePoly.zero(FIELD, n)
        for a, al in zip(result.assignments, result.alpha):
            combo = combo + f1.substitute(dict(zip(result.subset, a))).scale(al)
        if not combo.is_zero:
            bad += 1
            continue
        residual = result.residuals[0]
        if any(x > w * (w + 1) for x in residual.width_profile):
            bad += 1
            continue
        f2 = parts[1].abp.expand()
        want = SparsePoly.zero(FIELD, n)
        for a, al in zip(result.assignments, result.alpha):
            want = want + f2.substitute(dict(zip(result.subset, a))).scale(al)
        if residual.abp.expand() != want:
            bad += 1
    report("9 elimination-step", bad == 0, f"50 instances, {bad} violations")


def test_criterion_10_appendix_inequality_and_iterations(pit_corpus_run):
    """The iteration inequality holds on the full grid p in {0.1..0.9},
    r in {1..9}, n in {1..10^4} in exact interval arithmetic; and the
    identity test's observed round counts stay within 2*3^(k^2)*n^(1-1/2^(k-1))
    across criterion 1's corpus."""
    start = time.time()
    failures = 0
    checks = 0
    for j in range(1, 10):
        p = Fraction(j, 10)
        for r in range(1, 10):
            for n in range(1, 10 ** 4 + 1):
                checks += 1
                if not iteration_bound_check(n, p, r):
                    failures += 1
    sweep_time = time.time() - start
    log = pit_corpus_run["iteration_log"]
    iter_bad = sum(1 for n, k, rounds in log if rounds > iteration_bound(n, k))
    report("10 appendix-inequality", failures == 0 and iter_bad == 0,
           f"{checks} grid points in {sweep_time:.0f}s, {failures} failures; "
           f"{len(log)} round counts within 2*3^(k^2)*n^(1-1/2^(k-1)), "
           f"{iter_bad} exceed")
