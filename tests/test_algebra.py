"""Field arithmetic, sparse polynomials, and the incremental solver."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpkit.algebra import LinearSolver, PrimeField, SparsePoly, UniMatrix
from abpkit.evaldim import pd_rank

from conftest import make_random_poly


class TestPrimeField:
    def test_mul_identity(self, f7):
        for a in range(7):
            assert f7.mul(a, 1) == a

    def test_inv_3_mod7(self, f7):
        assert f7.inv(3) == 5
        assert f7.mul(3, 5) == 1

    def test_inv_zero_raises(self, f7):
        with pytest.raises(ZeroDivisionError):
            f7.inv(0)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(100)

    def test_large_prime_is_fast(self):
        # trial division would need about 1e7 steps for 10^14 + 31 and 1.5e9
        # for the Mersenne prime 2^61 - 1, minutes of work; the bound leaves
        # room for a slow runner
        start = time.perf_counter()
        assert PrimeField(100000000000031).p == 100000000000031
        assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m", [561, 3215031751, 3825123056546413051])
    def test_rejects_pseudoprimes(self, m):
        # a Carmichael number, the least strong pseudoprime to bases 2, 3, 5
        # and 7, and one to every base up to 23
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(m)

    def test_matches_trial_division(self):
        def trial(m):
            return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))
        for m in range(-3, 5000):
            if trial(m):
                assert PrimeField(m).p == m
            else:
                with pytest.raises(ValueError):
                    PrimeField(m)

    def test_refuses_beyond_certified_range(self):
        # 2^89 - 1 is a Mersenne prime above the range the fixed bases decide
        with pytest.raises(ValueError, match="too large"):
            PrimeField(2 ** 89 - 1)
        assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1

    @pytest.mark.parametrize("m", [101.0, True, "101"])
    def test_rejects_non_integer_modulus(self, m):
        with pytest.raises(ValueError, match="not an integer"):
            PrimeField(m)

    @given(st.integers(-500, 500), st.integers(-500, 500))
    def test_field_axioms_sample(self, a, b):
        f = PrimeField(101)
        assert f.mul(a, b) == (a * b) % 101
        if a % 101:
            assert f.mul(a, f.inv(a)) == 1


class TestSparsePoly:
    def test_difference_of_squares(self, field):
        x1 = SparsePoly.variable(field, 1, 0)
        one = SparsePoly.const(field, 1, 1)
        assert (x1 + one) * (x1 - one) == x1 * x1 - one

    def test_add_zero_identity(self, field):
        f = SparsePoly(field, 2, {(1, 0): 3, (0, 2): 5})
        assert f + SparsePoly.zero(field, 2) == f

    def test_binomial_square(self, field):
        x1 = SparsePoly.variable(field, 2, 0)
        x2 = SparsePoly.variable(field, 2, 1)
        sq = (x1 + x2) * (x1 + x2)
        assert sq == SparsePoly(field, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_substitute_example(self, f7):
        x1 = SparsePoly.variable(f7, 2, 0)
        x2 = SparsePoly.variable(f7, 2, 1)
        f = x1 * x2 + x2
        assert f.substitute({0: 2}) == SparsePoly(f7, 2, {(0, 1): 3})

    def test_substitute_empty(self, field):
        f = SparsePoly(field, 3, {(1, 2, 0): 4})
        assert f.substitute({}) == f

    def test_p2_full_substitution_matches_direct_arithmetic(self, f7):
        # P_2 on variables (x11, x12, x21, x22): the four factors evaluated
        # by hand at (1, 0, 0, 1) give (1+0)(0+1)(1+0)(0+1) = 1.
        v = [SparsePoly.variable(f7, 4, i) for i in range(4)]
        p2 = (v[0] + v[1]) * (v[2] + v[3]) * (v[0] + v[2]) * (v[1] + v[3])
        result = p2.substitute({0: 1, 1: 0, 2: 0, 3: 1})
        assert result == SparsePoly.const(f7, 4, 1)
        assert p2.evaluate([1, 0, 0, 1]) == 1

    def test_arity_mismatch_raises(self, field):
        f = SparsePoly.variable(field, 2, 0)
        g = SparsePoly.variable(field, 3, 0)
        with pytest.raises(ValueError):
            f + g

    def test_malformed_exponents_refused(self, field):
        with pytest.raises(ValueError, match=r"^exponent vector \(1,\) has length 1, expected 2$"):
            SparsePoly(field, 2, {(1,): 1})
        with pytest.raises(ValueError, match=r"^negative exponent in \(0, -1\)$"):
            SparsePoly(field, 2, {(0, -1): 1})

    @pytest.mark.parametrize("exps, bad", [((1.5,), "1.5"), ((2.0,), "2.0"), ((True,), "True")])
    def test_non_integer_exponents_refused(self, f7, exps, bad):
        # 1.5 used to be kept and printed as x1^1.5, and evaluate then raised TypeError
        with pytest.raises(ValueError, match=rf"^exponent in \({bad},\) must be an integer, "
                                             rf"got {bad}$"):
            SparsePoly(f7, 1, {exps: 1})

    @pytest.mark.parametrize("coeff", [1.5, 3.0, True, False, "2"])
    def test_non_integer_coefficients_refused(self, f7, coeff):
        # 1.5 used to be stored as the float 1.5
        with pytest.raises(ValueError, match=rf"^coefficient of \(1,\) must be an integer, "
                                             rf"got {coeff!r}$"):
            SparsePoly(f7, 1, {(1,): coeff})
        with pytest.raises(ValueError, match=rf"^coefficient of x1 must be an integer, "
                                             rf"got {coeff!r}$"):
            SparsePoly.linear(f7, 1, {0: coeff})
        with pytest.raises(ValueError, match=rf"^constant term must be an integer, "
                                             rf"got {coeff!r}$"):
            SparsePoly.const(f7, 1, coeff)

    def test_integer_exponents_and_coefficients_kept(self, f7):
        f = SparsePoly(f7, 2, {(1, 0): 9, (0, 2): -1})
        assert f.terms == {(1, 0): 2, (0, 2): 6}
        assert str(f) == "2*x1 + 6*x2^2"
        assert f.evaluate([1, 1]) == 1

    def test_variable_index_out_of_range(self, field):
        for i in (-1, 3):
            with pytest.raises(ValueError, match=rf"^variable index {i} out of range$"):
                SparsePoly.variable(field, 3, i)
            # a linear form used to fold such an index into its constant term
            with pytest.raises(ValueError, match=rf"^variable index {i} out of range$"):
                SparsePoly.linear(field, 3, {0: 1, i: 2})

    def test_substitute_index_out_of_range(self, field):
        f = SparsePoly.variable(field, 2, 0)
        for i in (-1, 2):
            with pytest.raises(ValueError, match=rf"^assigned variable {i} out of range$"):
                f.substitute({i: 1})

    def test_no_zero_coefficients_stored(self, field):
        f = SparsePoly(field, 1, {(1,): 101, (0,): 5})
        assert (1,) not in f.terms

    def test_distributivity_random(self, field):
        rng = random.Random(0)
        for _ in range(60):
            n = rng.randint(1, 6)
            f = make_random_poly(rng, field, n, 4)
            g = make_random_poly(rng, field, n, 4)
            h = make_random_poly(rng, field, n, 4)
            assert (f + g) * h == f * h + g * h

    def test_substitute_commutes_with_mul(self, field):
        rng = random.Random(1)
        for _ in range(120):
            n = rng.randint(1, 5)
            f = make_random_poly(rng, field, n, 3)
            g = make_random_poly(rng, field, n, 3)
            keys = [i for i in range(n) if rng.random() < 0.5]
            sub = {i: rng.randrange(field.p) for i in keys}
            assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)

    def test_all_coefficients_canonical(self, field):
        rng = random.Random(2)
        for _ in range(40):
            f = make_random_poly(rng, field, 3, 4)
            g = make_random_poly(rng, field, 3, 4)
            for poly in (f + g, f * g, f - g, -f):
                assert all(0 < c < field.p for c in poly.terms.values())

    def test_evaluate_matches_substitute(self, field):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 4)
            f = make_random_poly(rng, field, n, 3)
            pt = [rng.randrange(field.p) for _ in range(n)]
            full = f.substitute(dict(enumerate(pt)))
            assert full.coefficient((0,) * n) == f.evaluate(pt)

    def test_evaluate_wrong_point_length(self, field):
        f = SparsePoly.variable(field, 3, 0)
        with pytest.raises(ValueError, match=r"^point length 2 != num_vars 3$"):
            f.evaluate([1, 2])

    def test_eq_with_a_non_polynomial_is_not_implemented(self, field):
        f = SparsePoly.const(field, 1, 3)
        assert f.__eq__(3) is NotImplemented
        assert f != 3 and f != "3" and not f == (3,)

    def test_repr_shows_field_arity_and_terms(self, f7):
        f = SparsePoly(f7, 2, {(1, 0): 3})
        assert repr(f) == "SparsePoly(field=PrimeField(p=7), num_vars=2, terms={(1, 0): 3})"

    def test_distinct_but_equal_fields_are_compatible(self):
        f, g = SparsePoly.variable(PrimeField(7), 2, 0), SparsePoly.variable(PrimeField(7), 2, 1)
        assert f.field is not g.field
        assert f + g == SparsePoly(PrimeField(7), 2, {(1, 0): 1, (0, 1): 1})
        with pytest.raises(ValueError, match=r"^polynomial field/arity mismatch$"):
            f * SparsePoly.variable(PrimeField(11), 2, 1)


class TestUniMatrix:
    def test_eval_horner(self, field):
        m = UniMatrix(field, 0, (((1, 2, 3),),))
        # 1 + 2x + 3x^2 at x = 4 -> 57
        assert m.eval_at(4)[0][0] == 57

    def test_trailing_zeros_stripped(self, field):
        m = UniMatrix(field, 0, (((1, 0, 0),),))
        assert m.entries[0][0] == (1,)
        assert m.degree == 0

    def test_constant_layer_rejects_degree(self, field):
        with pytest.raises(ValueError):
            UniMatrix(field, None, (((1, 2),),))

    def test_ragged_matrix_refused(self, field):
        with pytest.raises(ValueError, match=r"^ragged matrix$"):
            UniMatrix(field, 0, (((1,), (2,)), ((3,),)))

    def test_constant_matches_validating_constructor(self, field):
        grid = ((0, 5, -1), (field.p, 2 * field.p + 3, 0))
        m = UniMatrix.constant(field, grid)
        want = UniMatrix(field, None, tuple(tuple((c,) for c in row) for row in grid))
        assert m == want
        assert (m.support, m.degree) == (want.support, want.degree) == ((0b110, 0b010), 0)
        for bad in ((), ((),), ((1, 2), (3,))):
            with pytest.raises(ValueError):
                UniMatrix.constant(field, bad)

    def test_identity(self, field):
        m = UniMatrix.identity(field, 3)
        assert m.eval_at(0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class TestLinearSolver:
    def test_rank_known_matrix(self, field):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]
        solver = LinearSolver(field)
        assert [solver.try_add(row) for row in rows] == [True, False, True]
        assert solver.rank == 2
        # the same rows as x*(y + 2y^2) + 2x^2*(y + 2y^2) + x^3*y^2, split by x | y
        x, y = SparsePoly.variable(field, 2, 0), SparsePoly.variable(field, 2, 1)
        f = (x + (x * x).scale(2)) * (y + (y * y).scale(2)) + x * x * x * y * y
        assert pd_rank(f, [0], [1]) == 2

    def test_dependency_coefficients(self, field):
        solver = LinearSolver(field, track_coords=True)
        assert solver.try_add({0: 1, 1: 1})
        assert solver.try_add({1: 1})
        # (3, 1) = 3*(1,1) - 2*(0,1)
        assert solver.express({0: 3, 1: 1}) == [3, field.p - 2]
        assert solver.express({0: 3, 1: 1}, size=4) == [3, field.p - 2, 0, 0]
        assert solver.express({2: 1}) is None
        with pytest.raises(ValueError, match="track_coords"):
            LinearSolver(field).express({0: 1})

    def test_callers_vectors_left_unchanged(self, field):
        # a row is normalized in place, on the solver's own copy of the vector
        solver = LinearSolver(field, track_coords=True)
        vecs = [{0: 2, 1: 3, 2: 5}, {1: 7, 2: -1}, {0: 1, 1: 1, 2: 1}, {0: 4, 1: 6, 2: 10}]
        copies = [dict(v) for v in vecs]
        assert [solver.try_add(v) for v in vecs] == [True, True, True, False]
        assert solver.express(vecs[3]) == [2, 0, 0]
        assert vecs == copies
        assert all(solver._rows[i][pivot] == 1 for pivot, i in solver._pivots.items())

    def test_express_roundtrip_random(self, field):
        rng = random.Random(4)
        for _ in range(30):
            solver = LinearSolver(field, track_coords=True)
            basis = []
            for _ in range(rng.randint(1, 5)):
                vec = {k: rng.randrange(field.p) for k in range(6)
                       if rng.random() < 0.7}
                if solver.try_add(vec):
                    basis.append(vec)
            coeffs = [rng.randrange(field.p) for _ in basis]
            combo: dict = {}
            for c, vec in zip(coeffs, basis):
                for k, v in vec.items():
                    combo[k] = (combo.get(k, 0) + c * v) % field.p
            combo = {k: v for k, v in combo.items() if v}
            got = solver.express(combo)
            assert got is not None
            rebuilt: dict = {}
            for c, vec in zip(got, basis):
                for k, v in vec.items():
                    rebuilt[k] = (rebuilt.get(k, 0) + c * v) % field.p
            rebuilt = {k: v for k, v in rebuilt.items() if v}
            assert rebuilt == combo


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-50, 50)), max_size=6))
def test_poly_add_commutes(entries):
    field = PrimeField(101)
    f = SparsePoly(field, 2, {(a, b): c for a, b, c in entries})
    g = SparsePoly(field, 2, {(b, a): c for a, b, c in entries})
    assert f + g == g + f
