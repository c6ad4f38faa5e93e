"""Evaluation dimension, read-once synthesis, and the width collapses."""

import random

import pytest

from abpkit.abp import ClassificationError, ObliviousAbp, validate
from abpkit.algebra import PrimeField, SparsePoly, UniMatrix
from abpkit.corpus import random_k_pass_abp, random_multilinear_poly
from abpkit.evaldim import (Roabp, eval_dim, k_gap_check, k_gap_to_roabp,
                            k_pass_to_roabp, roabp_synthesize, roabp_width_profile)
from abpkit.hardpoly import gen_pn


def variables(field, n):
    return [SparsePoly.variable(field, n, i) for i in range(n)]


def reading_chain(field, num_vars, reads):
    return ObliviousAbp(field, num_vars,
                        tuple(UniMatrix(field, v, (((0, 1),),)) for v in reads))


class TestEvalDim:
    def test_product_has_dim_one(self, field):
        x1, x2 = variables(field, 2)
        rep = eval_dim(x1 * x2, [0], [1])
        assert rep.dimension == 1
        assert len(rep.basis_assignments) == 1

    def test_sum_has_dim_two(self, field):
        x1, x2 = variables(field, 2)
        rep = eval_dim(x1 + x2, [0], [1])
        assert rep.dimension == 2
        # restrictions at the chosen assignments really span: 0 and 1
        assert rep.basis_assignments == ((0,), (1,))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_independent_pair_products(self, field, t):
        # f = prod (v_i + u_i): fixing u gives all 2^t sign patterns
        n = 2 * t
        vs = variables(field, n)
        f = SparsePoly.const(field, n, 1)
        for i in range(t):
            f = f * (vs[t + i] + vs[i])
        rep = eval_dim(f, list(range(t)), list(range(t, n)))
        assert rep.dimension == 2 ** t

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_lower_bound_with_nonvanishing_cofactor(self, field, t):
        # f = prod(v_i + u_i) * g(u, w) with g a product of (u_i + w_i + 1):
        # g never vanishes under any u assignment, so the bound 2^t survives.
        n = 3 * t
        vs = variables(field, n)
        f = SparsePoly.const(field, n, 1)
        for i in range(t):
            f = f * (vs[t + i] + vs[i])
        for i in range(t):
            f = f * (vs[i] + vs[2 * t + i] + SparsePoly.const(field, n, 1))
        rep = eval_dim(f, list(range(t)), list(range(t, n)), with_basis=False)
        assert rep.dimension >= 2 ** t

    def test_overlapping_sets_rejected(self, field):
        x1, x2 = variables(field, 2)
        with pytest.raises(ValueError):
            eval_dim(x1 + x2, [0], [0, 1])

    @pytest.mark.parametrize("with_basis", [True, False])
    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_with_r_refused(self, field, trials, with_basis):
        # no substitution would leave dimension -1 and no polynomial to scan
        x1, x2, x3 = variables(field, 3)
        with pytest.raises(ValueError, match="trials"):
            eval_dim(x1 * x3 + x2, [0], [1], [2], trials=trials, with_basis=with_basis)

    def test_trials_ignored_without_r(self, field):
        x1, x2 = variables(field, 2)
        assert eval_dim(x1 + x2, [0], [1], trials=0).dimension == 2

    def test_random_substitution_lower_bounds_exact(self, field):
        rng = random.Random(20)
        for _ in range(40):
            n = rng.randint(3, 5)
            f = random_multilinear_poly(rng, field, n)
            parts = [rng.randrange(3) for _ in range(n)]
            S = [i for i in range(n) if parts[i] == 0]
            T = [i for i in range(n) if parts[i] == 1]
            R = [i for i in range(n) if parts[i] == 2]
            if not S or not T:
                continue
            exact = eval_dim(f, S, T + R, with_basis=False).dimension
            with_r = eval_dim(f, S, T, R, with_basis=False,
                              seed=rng.randrange(10 ** 6)).dimension
            assert with_r <= exact

    def test_moving_variable_factor_bounds(self, field):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(3, 5)
            f = random_multilinear_poly(rng, field, n)
            S = [i for i in range(1, n) if i % 2 == 0]
            T = [i for i in range(1, n) if i % 2 == 1]
            d0 = f.individual_degrees()[0] + 1
            base = eval_dim(f, S, T + [0], with_basis=False).dimension
            moved = eval_dim(f, S + [0], T, with_basis=False).dimension
            assert moved <= base * d0
            assert moved * d0 >= base


class TestWidthProfile:
    def test_product(self, field):
        x1, x2 = variables(field, 2)
        assert roabp_width_profile(x1 * x2, (0, 1)) == (1,)

    def test_sum(self, field):
        x1, x2 = variables(field, 2)
        assert roabp_width_profile(x1 + x2, (0, 1)) == (2,)

    def test_p2_row_major_all_positive(self, field):
        p2 = gen_pn(2, field).polynomial
        profile = roabp_width_profile(p2, (0, 1, 2, 3))
        assert len(profile) == 3
        assert all(w >= 1 for w in profile)


class TestSynthesize:
    def test_rank_one_product(self, field):
        x1, x2 = variables(field, 2)
        r = roabp_synthesize(x1 * x2, (0, 1))
        assert r.width_profile == (1,)
        assert r.abp.expand() == x1 * x2

    def test_zero_polynomial(self, field):
        z = SparsePoly.zero(field, 3)
        r = roabp_synthesize(z, (0, 1, 2))
        assert r.abp.expand().is_zero
        assert r.order == (0, 1, 2)

    def test_sum_width_two(self, field):
        x1, x2 = variables(field, 2)
        r = roabp_synthesize(x1 + x2, (0, 1))
        assert r.width_profile == (2,)
        assert r.abp.expand() == x1 + x2

    def test_constant(self, field):
        c = SparsePoly.const(field, 0, 7)
        r = roabp_synthesize(c)
        assert r.abp.evaluate([]) == 7

    def test_nisan_tightness_random(self, field):
        rng = random.Random(22)
        for _ in range(25):
            n = rng.randint(1, 4)
            f = random_multilinear_poly(rng, field, n)
            order = list(range(n))
            rng.shuffle(order)
            r = roabp_synthesize(f, order)
            assert r.abp.expand() == f
            assert r.width_profile == roabp_width_profile(f, order)

    def test_higher_degree_synthesis(self, field):
        rng = random.Random(23)
        from conftest import make_random_poly
        for _ in range(15):
            n = rng.randint(1, 3)
            f = make_random_poly(rng, field, n, 4)
            r = roabp_synthesize(f, tuple(range(n)))
            assert r.abp.expand() == f

    def test_nisan_tightness_individual_degree_two(self, field):
        # corpus with every individual degree <= 2, n <= 5
        rng = random.Random(27)
        for _ in range(20):
            n = rng.randint(1, 5)
            terms = {}
            for _ in range(rng.randint(1, 10)):
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                terms[exps] = rng.randrange(1, field.p)
            f = SparsePoly(field, n, terms)
            order = list(range(n))
            rng.shuffle(order)
            r = roabp_synthesize(f, order)
            assert r.width_profile == roabp_width_profile(f, order)
            assert r.abp.expand() == f


class TestKGapCheck:
    def test_figure_read_order(self, field):
        a = reading_chain(field, 4, [0, 1, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3])
        assert k_gap_check(a.read_order(), a.num_vars, 2) == 2

    def test_full_prefix_single_block(self, field):
        a = reading_chain(field, 4, [0, 1, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3])
        assert k_gap_check(a.read_order(), a.num_vars, 4) == 1

    def test_alternating(self, field):
        a = reading_chain(field, 2, [0, 1, 0, 1])
        assert k_gap_check(a.read_order(), a.num_vars, 1) == 2

    def test_suffix_first_order(self, field):
        # reads start outside the prefix: leading constant block still counts once
        a = reading_chain(field, 2, [1, 0, 1])
        assert k_gap_check(a.read_order(), a.num_vars, 1) == 2


def max_gap(abp, order=None):
    """The largest ``k_gap_check`` over every nonempty prefix of the order."""
    n = abp.num_vars
    return max((k_gap_check(abp.read_order(), n, i, order) for i in range(1, n + 1)), default=1)


def assert_pass_gaps(a, k):
    # k passes in order pi: exactly k gaps at every proper prefix of pi, and
    # one at the full prefix, so k_pass_to_roabp needs no gap check
    pi = validate(a).pass_orders[0]
    assert max_gap(a, order=pi) == (k if a.num_vars >= 2 else 1)


class TestCollapse:
    def test_one_pass_returned_unchanged(self, field):
        a = reading_chain(field, 3, [1, 0, 2])
        assert_pass_gaps(a, 1)
        r = k_pass_to_roabp(a)
        assert r.abp is a
        assert r.order == (1, 0, 2)

    def test_two_pass_width_one_square(self, field):
        a = reading_chain(field, 1, [0, 0])
        assert_pass_gaps(a, 2)
        r = k_pass_to_roabp(a)
        assert r.width <= 1
        x = SparsePoly.variable(field, 1, 0)
        assert r.abp.expand() == x * x

    def test_two_pass_sum_square(self, field):
        # (x1 + x2)^2 as a width-2 two-pass program
        layers = (
            UniMatrix(field, 0, (((0, 1), (1,)),)),
            UniMatrix(field, 1, (((1,), ()), ((0, 1), (1,)))),
            UniMatrix(field, 0, (((0, 1), (1,)), ((), ()))),
            UniMatrix(field, 1, (((1,),), ((0, 1),))),
        )
        a = ObliviousAbp(field, 2, layers)
        x1, x2 = variables(field, 2)
        assert a.expand() == (x1 + x2) * (x1 + x2)
        assert_pass_gaps(a, 2)
        r = k_pass_to_roabp(a)
        assert r.abp.expand() == (x1 + x2) * (x1 + x2)
        assert r.width <= 2 ** 4

    def test_varying_order_rejected(self, field):
        a = reading_chain(field, 2, [0, 1, 1, 0])
        with pytest.raises(ClassificationError):
            k_pass_to_roabp(a)

    def test_k_pass_width_bound_random(self, field):
        rng = random.Random(24)
        for _ in range(40):
            n = rng.randint(2, 5)
            k = rng.randint(1, 3)
            w = rng.randint(1, 3)
            a = random_k_pass_abp(rng, field, n, k, w, entry_degree=1)
            assert_pass_gaps(a, k)
            r = k_pass_to_roabp(a)
            assert r.abp.expand() == a.expand()
            assert r.width <= max(w, 1) ** (2 * k)

    def test_k_gap_subsumes_k_pass(self, field):
        rng = random.Random(25)
        for _ in range(15):
            n = rng.randint(2, 4)
            a = random_k_pass_abp(rng, field, n, 2, 2, entry_degree=1)
            assert_pass_gaps(a, 2)
            # identity-order gap need not be small for an arbitrary pass
            # order, so collapse in the program's own order via the pass path
            # and in identity order via the gap path when admissible.
            if max_gap(a) <= 2:
                r = k_gap_to_roabp(a)
                assert r.abp.expand() == a.expand()

    def test_figure_order_width_one(self, field):
        a = reading_chain(field, 4, [0, 1, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3])
        assert max_gap(a) <= 3
        r = k_gap_to_roabp(a)
        assert r.width == 1
        assert r.abp.expand() == a.expand()

    def test_gap_violation_reports_prefix(self, field):
        # x1 and x3 read three times, x2 once: prefix {x1, x2} needs 4 gaps
        a = reading_chain(field, 3, [0, 2, 0, 2, 0, 2, 1])
        with pytest.raises(ClassificationError, match="prefix length 2"):
            k_gap_to_roabp(a)

    def test_regular_interleaving_program_collapses(self, field):
        # width-2 read-2 program reading a regularly interleaving order
        rng = random.Random(26)
        reads = [0, 1, 0, 1, 2, 3, 2, 3]
        dims = [1, 2, 2, 2, 2, 2, 2, 2, 1]
        layers = []
        for pos, v in enumerate(reads):
            rows = tuple(
                tuple(tuple(rng.randrange(field.p) for _ in range(2))
                      for _ in range(dims[pos + 1]))
                for _ in range(dims[pos]))
            layers.append(UniMatrix(field, v, rows))
        a = ObliviousAbp(field, 4, tuple(layers))
        assert max_gap(a) <= 2
        r = k_gap_to_roabp(a)
        assert r.abp.expand() == a.expand()
        assert r.width <= a.width ** 4


class TestRefusals:
    """Each refusal of the public entry points, with its message."""

    def test_roabp_order_must_match_the_reads(self, field):
        a = reading_chain(field, 2, [0, 1])
        assert Roabp(a, (0, 1), (1,)).width == 1
        for order in ((1, 0), (0,), (0, 1, 1)):
            with pytest.raises(ValueError,
                               match="^program does not read the declared order once each$"):
                Roabp(a, order, (1,))

    def test_eval_dim_field_must_exceed_the_degree(self, f7):
        x = variables(f7, 2)
        top = x[0] * x[0] * x[0] * x[1] * x[1] * x[1] * x[1]
        with pytest.raises(ValueError, match=r"^field size 7 must exceed deg\(f\) = 7$"):
            eval_dim(top + x[1], [0], [1])
        assert eval_dim(x[0] * x[1] + x[1], [0], [1]).dimension == 1

    def test_order_must_permute_all_variables(self, field):
        f = random_multilinear_poly(random.Random(5), field, 3)
        for order in ((0, 1), (0, 1, 1), (0, 1, 3), (0, 1, 2, 3)):
            for call in (roabp_width_profile, roabp_synthesize):
                with pytest.raises(ValueError,
                                   match="^order must be a permutation of all variables$"):
                    call(f, order)

    def test_width_profile_and_synthesis_need_a_large_field(self):
        field = PrimeField(2)
        x = variables(field, 2)
        f = x[0] * x[1] + x[0]
        with pytest.raises(ValueError, match="^field too small for exact width profile$"):
            roabp_width_profile(f, (0, 1))
        with pytest.raises(ValueError, match="^field too small for synthesis$"):
            roabp_synthesize(f, (0, 1))
        assert roabp_synthesize(x[0] + x[1], (0, 1)).width_profile == (2,)

    def test_k_gap_prefix_length_in_range(self, field):
        a = reading_chain(field, 3, [0, 1, 2])
        for prefix_len in (-1, 4):
            with pytest.raises(ValueError, match=rf"^prefix length {prefix_len} out of range$"):
                k_gap_check(a.read_order(), a.num_vars, prefix_len)
        assert [k_gap_check(a.read_order(), a.num_vars, i) for i in range(4)] == [1, 1, 1, 1]

    def test_k_gap_of_a_program_that_reads_nothing(self, field):
        a = ObliviousAbp(field, 2, (UniMatrix.constant(field, ((3,),)),))
        assert [k_gap_check(a.read_order(), a.num_vars, i) for i in range(3)] == [1, 1, 1]
