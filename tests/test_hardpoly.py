"""Hard families, block partitions, elimination, and the dimension experiments."""

import itertools
import random

import pytest

from abpkit.abp import ObliviousAbp, _missing_reads, _pad, validate
from abpkit.algebra import GuardExceeded, LinearSolver, PrimeField, SparsePoly, UniMatrix
from abpkit.corpus import random_read_k_abp, random_roabp
from abpkit.evaldim import Roabp, eval_dim
from abpkit.hardpoly import (_pn_terms, _qn_terms, block_partition, eliminate_summand,
                             experiment_pn_evaldim, experiment_qn_evaldim,
                             gen_pn, gen_qn, pn_projection_step, pn_var,
                             qn_matchings, qn_var_name)


class TestGenPn:
    def test_n1_is_square(self, field):
        inst = gen_pn(1, field)
        x = SparsePoly.variable(field, 1, 0)
        assert inst.polynomial == x * x
        assert len(inst.realization.layers) == 2
        assert inst.realization.width == 1

    def test_n2_formula(self, field):
        inst = gen_pn(2, field)
        v = [SparsePoly.variable(field, 4, i) for i in range(4)]
        direct = (v[0] + v[1]) * (v[2] + v[3]) * (v[0] + v[2]) * (v[1] + v[3])
        assert inst.polynomial == direct

    def test_n2_all_ones(self, field):
        inst = gen_pn(2, field)
        assert inst.polynomial.evaluate([1] * 4) == 16
        assert inst.realization.evaluate([1] * 4) == 16

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_realization_matches_polynomial(self, field, n):
        inst = gen_pn(n, field)
        assert inst.realization.expand() == inst.polynomial

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_pass_varying_order_width_two(self, field, n):
        inst = gen_pn(n, field)
        cls = validate(inst.realization)
        assert cls.k == 2
        assert cls.is_k_pass_varying_order
        assert not cls.is_k_pass
        assert inst.realization.width <= 2
        row_major = tuple(pn_var(n, i, j)
                          for i in range(1, n + 1) for j in range(1, n + 1))
        col_major = tuple(pn_var(n, i, j)
                          for j in range(1, n + 1) for i in range(1, n + 1))
        assert cls.pass_orders == (row_major, col_major)

    def test_symbolic_guard(self, field):
        with pytest.raises(GuardExceeded):
            gen_pn(5, field, with_poly=True)
        inst = gen_pn(5, field)  # program-only is fine
        assert inst.polynomial is None
        assert inst.realization.num_vars == 25

    def test_p3_read_sequence_row_then_column_major(self, field):
        from abpkit.abp import padded_reads
        from abpkit.sequences import ReadSequence
        inst = gen_pn(3, field)
        seq = ReadSequence.from_order(padded_reads(inst.realization))
        row_major = tuple(pn_var(3, i, j)
                          for i in range(1, 4) for j in range(1, 4))
        col_major = [pn_var(3, i, j) for j in range(1, 4) for i in range(1, 4)]
        assert seq.labels == row_major
        assert [seq.labels[e] for e in seq.read_order(1)] == list(row_major)
        assert [seq.labels[e] for e in seq.read_order(2)] == col_major


class TestPnProjection:
    @pytest.mark.parametrize("n,t", [(2, 0), (3, 0), (3, 1)])
    def test_projection_reaches_smaller_family(self, field, n, t):
        for seed in range(3):
            step = pn_projection_step(n, t, field, seed=seed)
            assert step.verified
            assert step.scale != 0

    def test_rejects_too_large_prefix(self, field):
        with pytest.raises(ValueError):
            pn_projection_step(3, 2, field)


class TestGenQn:
    def test_n2_formula(self, field):
        inst = gen_qn(2, field)
        v = [SparsePoly.variable(field, 6, i) for i in range(6)]
        x1, x2, y1, y2, z1, z2 = v
        direct = z1 * (x1 + y2) * (x2 + y1) + z2 * (x1 + y1) * (x2 + y2)
        assert inst.polynomial == direct

    def test_projection_to_single_matching(self, field):
        inst = gen_qn(2, field)
        v = [SparsePoly.variable(field, 6, i) for i in range(6)]
        proj = inst.polynomial.substitute({4: 1, 5: 0})
        assert proj == (v[0] + v[3]) * (v[1] + v[2])

    def test_all_ones_value(self, field):
        inst = gen_qn(2, field)
        assert inst.polynomial.evaluate([1] * 6) == 8
        assert inst.realization.evaluate([1] * 6) == 8

    @pytest.mark.parametrize("n", [2, 3])
    def test_realization_matches_polynomial(self, field, n):
        inst = gen_qn(n, field)
        assert inst.realization.expand() == inst.polynomial

    @pytest.mark.parametrize("n", list(range(2, 9)))
    def test_matchings_tile_complete_bipartite(self, n):
        ms = qn_matchings(n)
        assert len(ms) == n
        seen = set()
        for matching in ms:
            lefts = [j for j, _ in matching]
            rights = [k for _, k in matching]
            assert sorted(lefts) == list(range(1, n + 1))
            assert sorted(rights) == list(range(1, n + 1))
            for edge in matching:
                assert edge not in seen
                seen.add(edge)
        assert len(seen) == n * n

    def test_n_below_two_rejected(self, field):
        with pytest.raises(ValueError):
            gen_qn(1, field)

    def test_width_four(self, field):
        assert gen_qn(3, field).realization.width <= 4


class TestSymbolicTermGuard:
    """P_n and Q_n are built only when the term bound the guard reads fits
    the 10^6 expansion guard."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_qn_term_count_exact(self, field, n):
        assert len(gen_qn(n, field).polynomial.terms) == _qn_terms(n) == n * 2 ** n

    @pytest.mark.parametrize("n", range(1, 5))
    def test_pn_term_count_bounded(self, field, n):
        assert len(gen_pn(n, field).polynomial.terms) <= _pn_terms(n) == n ** (2 * n)

    def test_qn7_meets_every_floor(self):
        rep = experiment_qn_evaldim(7, pairs=5)
        assert len(rep.rows) == 5
        assert all(r.ok for r in rep.rows)

    def test_refused_before_any_product(self, field, monkeypatch):
        def no_product(self, other):
            raise AssertionError("a polynomial was built")
        monkeypatch.setattr(SparsePoly, "__mul__", no_product)
        p5 = "symbolic P_5 estimated at 9765625 terms exceeds guard 1000000"
        q16 = "symbolic Q_16 estimated at 1048576 terms exceeds guard 1000000"
        for call, message in ((lambda: gen_pn(5, field, with_poly=True), p5),
                              (lambda: experiment_pn_evaldim(5, max_size=1, field=field), p5),
                              (lambda: pn_projection_step(5, 1, field), p5),
                              (lambda: gen_qn(16, field, with_poly=True), q16),
                              (lambda: experiment_qn_evaldim(16, pairs=1), q16)):
            with pytest.raises(GuardExceeded, match=f"^{message}$"):
                call()
        # left to the default, the polynomial is simply omitted
        assert gen_pn(5, field).polynomial is None
        assert gen_qn(16, field).polynomial is None


class TestBlockPartition:
    def test_one_pass_fine_blocks(self, field):
        rng = random.Random(40)
        a = random_read_k_abp(rng, field, 5, 1, 2, 1, term_budget=500)
        part = block_partition(a, len(_pad(a, _missing_reads(a)[1]).layers))
        assert len(part.U) == 1
        assert part.W == frozenset()

    def test_clustered_reads_found(self, field):
        from abpkit.abp import ObliviousAbp
        from abpkit.algebra import UniMatrix
        # 8 variables read twice: x1..x4 in layers 0..7, x5..x8 in layers 8..15
        reads = [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 4, 5, 6, 7]
        layers = tuple(UniMatrix(field, v, (((0, 1),),)) for v in reads)
        a = ObliviousAbp(field, 8, layers)
        part = block_partition(a, 4)
        assert part.chosen == (0, 1)
        assert part.U == frozenset({0, 1, 2, 3})
        assert part.W == frozenset()
        assert part.V == frozenset({4, 5, 6, 7})

    def test_invariants_random(self, field):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(2, 6)
            k = rng.randint(1, 3)
            a = random_read_k_abp(rng, field, n, k, 2, 1, term_budget=2000)
            norm = _pad(a, _missing_reads(a)[1])
            length = len(norm.layers)
            r = rng.randint(k, max(k, min(length, 6)))
            part = block_partition(a, r)
            # all reads of U fall inside the chosen blocks
            chosen_ranges = [part.blocks[b] for b in part.chosen]
            for idx, layer in enumerate(norm.layers):
                if layer.var in part.U:
                    assert any(lo <= idx < hi for lo, hi in chosen_ranges)
            # size accounting
            import math
            assert len(part.W) <= part.k * math.ceil(length / r)
            if length % r == 0:
                assert len(part.W) <= part.k ** 2 * length / r
            # averaging floor
            assert len(part.U) >= n / math.comb(r, part.k) - 1e-9
            assert part.U | part.V | part.W == frozenset(range(n))

    def test_eval_dim_cap_read2(self, field):
        rng = random.Random(42)
        for _ in range(10):
            n = rng.randint(3, 6)
            w = rng.randint(1, 2)
            a = random_read_k_abp(rng, field, n, 2, w, 1, term_budget=2000)
            norm = _pad(a, _missing_reads(a)[1])
            r = min(len(norm.layers), 4)
            part = block_partition(a, r)
            if not part.U or not part.V:
                continue
            f = a.expand()
            rep = eval_dim(f, sorted(part.U), sorted(part.V), sorted(part.W),
                           with_basis=False, seed=1)
            assert rep.dimension <= max(w, 1) ** 4


class TestEliminateSummand:
    def test_single_summand_combination_is_zero(self, field):
        rng = random.Random(44)
        part = random_roabp(rng, field, 4, 2, 1)
        res = eliminate_summand([part], 2)
        assert res.residuals == ()
        assert any(res.alpha)
        f = part.abp.expand()
        total = SparsePoly.zero(field, 4)
        for a, al in zip(res.assignments, res.alpha):
            total = total + f.substitute(dict(zip(res.subset, a))).scale(al)
        assert total.is_zero

    def test_pair_residual_oracle(self, field):
        rng = random.Random(45)
        for _ in range(25):
            n = rng.randint(3, 6)
            w = rng.randint(1, 3)
            t = rng.randint(1, 2)
            parts = [random_roabp(rng, field, n, w, 1) for _ in range(2)]
            res = eliminate_summand(parts, t)
            assert any(res.alpha)
            f1 = parts[0].abp.expand()
            combo1 = SparsePoly.zero(field, n)
            for a, al in zip(res.assignments, res.alpha):
                combo1 = combo1 + f1.substitute(dict(zip(res.subset, a))).scale(al)
            assert combo1.is_zero
            f2 = parts[1].abp.expand()
            combo2 = SparsePoly.zero(field, n)
            for a, al in zip(res.assignments, res.alpha):
                combo2 = combo2 + f2.substitute(dict(zip(res.subset, a))).scale(al)
            residual = res.residuals[0]
            assert residual.abp.expand() == combo2
            assert all(x <= w * (w + 1) for x in residual.width_profile)
            assert len(res.assignments) <= w + 1

    def test_three_summands(self, field):
        rng = random.Random(46)
        parts = [random_roabp(rng, field, 4, 2, 1) for _ in range(3)]
        res = eliminate_summand(parts, 1)
        assert len(res.residuals) == 2
        for part, residual in zip(parts[1:], res.residuals):
            f = part.abp.expand()
            combo = SparsePoly.zero(field, 4)
            for a, al in zip(res.assignments, res.alpha):
                combo = combo + f.substitute(dict(zip(res.subset, a))).scale(al)
            assert residual.abp.expand() == combo

    def test_one_layer_residuals(self, field):
        """A one-layer summand's blocks meet in a single cell, which holds
        the alpha-weighted sum of the restricted entries."""
        rng = random.Random(48)
        for _ in range(10):
            first = random_roabp(rng, field, 2, rng.randint(1, 3), 1)
            layers = [UniMatrix(field, v, ((tuple(rng.randrange(field.p) for _ in range(3)),),))
                      for v in first.order]
            parts = [first] + [Roabp(ObliviousAbp(field, 2, (layer,)), (layer.var,), ())
                               for layer in layers]
            res = eliminate_summand(parts, 1)
            for part, residual in zip(parts[1:], res.residuals):
                f = part.abp.expand()
                combo = SparsePoly.zero(field, 2)
                for a, al in zip(res.assignments, res.alpha):
                    combo = combo + f.substitute(dict(zip(res.subset, a))).scale(al)
                assert len(residual.abp.layers) == 1
                assert residual.abp.expand() == combo

    def test_small_field_grid_too_small_refused(self):
        # over F_2 one prefix variable gives 2 < w + 1 points, and the range
        # cannot grow past p; here the two restrictions are independent
        rng = random.Random(27)
        parts = [random_roabp(rng, PrimeField(2), 3, 3, 1) for _ in range(2)]
        with pytest.raises(ValueError, match="too small to force a linear dependency"):
            eliminate_summand(parts, 1)

    def test_t_out_of_range(self, field):
        rng = random.Random(47)
        part = random_roabp(rng, field, 3, 2, 1)
        with pytest.raises(ValueError):
            eliminate_summand([part], 3)


class TestExperiments:
    def test_pn_t0_dimension_one(self, field):
        rep = experiment_pn_evaldim(2, max_size=0, field=field)
        assert rep.rows[0].dimension == 1
        assert rep.rows[0].ok

    def test_pn_single_cell_at_least_two(self, field):
        rep = experiment_pn_evaldim(2, max_size=1, field=field)
        singles = [r for r in rep.rows if r.t == 1]
        assert len(singles) == 4
        assert all(r.dimension >= 2 for r in singles)

    def test_pn_lemma_range_clean_n3(self, field):
        rep = experiment_pn_evaldim(3, max_size=2, field=field)
        assert all(r.ok for r in rep.rows if r.lemma_applies)

    def test_pn_csv(self, field, tmp_path):
        rep = experiment_pn_evaldim(2, max_size=1, field=field)
        out = tmp_path / "pn.csv"
        rep.to_csv(out)
        text = out.read_text().splitlines()
        assert text[0] == "subset,t,dimension,floor,lemma_applies,ok"
        assert len(text) == 1 + len(rep.rows)

    @pytest.mark.parametrize("subset", [(0, 0), (-1,), (4,), (7,), (1, 2, 1)])
    def test_pn_bad_subset_refused(self, field, subset):
        # a repeat would rank a smaller set under t = len(subset), a negative
        # index would wrap to the last variable
        with pytest.raises(ValueError, match="distinct variables in 0..3"):
            experiment_pn_evaldim(2, field=field, subsets=[subset])

    @pytest.mark.parametrize("n", [0, -1])
    def test_pn_small_n_refused(self, field, n):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            experiment_pn_evaldim(n, max_size=1, field=field)

    @pytest.mark.parametrize("n", [1, 0])
    def test_qn_small_n_refused(self, n):
        with pytest.raises(ValueError, match="^n must be at least 2$"):
            experiment_qn_evaldim(n, pairs=1)

    def test_symbolic_limits_refused(self, field):
        with pytest.raises(GuardExceeded, match="^symbolic P_5 estimated at 9765625 terms"):
            experiment_pn_evaldim(5, max_size=0, field=field)
        with pytest.raises(GuardExceeded, match="^symbolic Q_16 estimated at 1048576 terms"):
            experiment_qn_evaldim(16, pairs=1)

    def test_pn_field_precondition(self):
        # over F_2 the rank of {x3_2, x3_3} in P_3 is 7, but F_2^S has only 4
        # points, so there are at most 4 restrictions
        subset = (pn_var(3, 3, 2), pn_var(3, 3, 3))
        with pytest.raises(ValueError, match="must exceed P_n's individual degree 2"):
            experiment_pn_evaldim(3, field=PrimeField(2), subsets=[subset])
        # over F_3 the rank is the span of all 9 restrictions
        f3 = PrimeField(3)
        rep = experiment_pn_evaldim(3, field=f3, subsets=[subset])
        poly = gen_pn(3, f3).polynomial
        solver = LinearSolver(f3)
        for a in itertools.product(range(3), repeat=2):
            solver.try_add(poly.substitute(dict(zip(subset, a))).terms)
        assert rep.rows[0].dimension == solver.rank

    def test_qn_no_trials_refused(self):
        with pytest.raises(ValueError, match="trials"):
            experiment_qn_evaldim(2, pairs=1, trials=0)

    def test_qn_empty_s_dimension_one(self):
        field = PrimeField(101)
        inst = gen_qn(3, field)
        rep = eval_dim(inst.polynomial, [], list(range(6)),
                       list(range(6, 9)), with_basis=False, seed=0)
        assert rep.dimension == 1

    def test_qn_mechanism_small(self):
        rep = experiment_qn_evaldim(3, pairs=15, trials=3, seed=0)
        assert all(r.ok for r in rep.rows)
        assert all(r.floor == 2 ** r.m for r in rep.rows)

    def test_qn_cross_edges_manual(self):
        from abpkit.hardpoly import qn_cross_edges, qn_x, qn_y
        n = 3
        S = {qn_x(n, 1), qn_x(n, 2)}
        T = {qn_y(n, 1), qn_y(n, 2), qn_y(n, 3), qn_x(n, 3)}
        m, witness = qn_cross_edges(n, S, T)
        # every matching pairs x1 and x2 with some y in T: m = 2
        assert m == 2
        inst = gen_qn(n, PrimeField(101))
        rep = eval_dim(inst.polynomial, sorted(S), sorted(T),
                       list(range(6, 9)), with_basis=False, seed=3)
        assert rep.dimension >= 2 ** m

    def test_qn_csv(self, tmp_path):
        rep = experiment_qn_evaldim(3, pairs=5, trials=2, seed=1)
        out = tmp_path / "qn.csv"
        rep.to_csv(out)
        lines = out.read_text().splitlines()
        assert len(lines) == 6


class TestRefusals:
    """Each refusal of the public entry points, with its message."""

    @pytest.mark.parametrize("n", [0, -2])
    def test_gen_pn_needs_a_variable(self, n):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            gen_pn(n)

    def test_qn_variable_names(self):
        assert [qn_var_name(3, v) for v in range(9)] == [
            "x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3"]

    def test_block_partition_needs_k_blocks(self, field):
        a = gen_qn(3, field, with_poly=False).realization
        assert validate(a).k == 3
        with pytest.raises(ValueError, match="^need at least k=3 blocks, got r=2$"):
            block_partition(a, 2)
        assert block_partition(a, 3).k == 3

    def test_eliminate_summand_needs_a_summand(self):
        for parts in ([], ()):
            with pytest.raises(ValueError, match="^need at least one summand$"):
                eliminate_summand(parts, 1)
