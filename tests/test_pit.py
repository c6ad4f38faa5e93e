"""The white-box identity test, its per-round points, and the round-count inequality."""

import itertools
import pathlib
import random
import time
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest

from abpkit import abp as abpmod
from abpkit import pit
from abpkit.abp import ObliviousAbp, to_canonical_text
from abpkit.algebra import GuardExceeded, PrimeField, UniMatrix
from abpkit.corpus import random_read_k_abp, random_roabp
from abpkit.hardpoly import gen_pn, gen_qn
from abpkit.pit import iteration_bound, iteration_bound_check, read_k_pit
from abpkit.sequences import ReadSequence

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def chain(field, *coeffs):
    """Width-1 read-once program: the product over v of the polynomial in x_v
    with coefficients ``coeffs[v]``, lowest degree first."""
    return ObliviousAbp(field, len(coeffs), tuple(
        UniMatrix(field, v, ((tuple(c),),)) for v, c in enumerate(coeffs)))


def records(verdict):
    return [(r.subset, r.h_size, r.points_tried, r.chosen) for r in verdict.iterations]


def criterion_1_k3(field, index):
    """Criterion 1's program k3#index, the (index+1)-th draw from Random(1003),
    with its zero kind; its ``read_k_pit`` seed is ``index``."""
    rng = random.Random(1003)
    for _ in range(index + 1):
        n, w, roll = rng.randint(1, 8), rng.randint(1, 3), rng.random()
        zero_kind = "cancel" if roll < 0.12 else ("zero_layer" if roll < 0.22 else None)
        program = random_read_k_abp(rng, field, n, 3, w, max_entry_degree=2,
                                    term_budget=20000, zero_kind=zero_kind)
    return program, zero_kind


def count_calls(monkeypatch, calls):
    """Count calls of the ``ObliviousAbp`` methods named by ``calls``' keys."""
    for name in calls:
        def counted(self, *args, _name=name, _real=getattr(ObliviousAbp, name)):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(ObliviousAbp, name, counted)
    return calls


class TestGridPoints:
    """A round's grid is {0..d_v} per subset variable, walked in
    ``itertools.product`` order: a read-once program is one round, so its
    records show the grid's size and where the walk stops."""

    def test_two_vars_multilinear(self, field):
        v = read_k_pit(chain(field, (0, 1), (0, 1)))       # x1*x2
        assert records(v) == [((0, 1), 4, 4, (1, 1))]
        assert v.witness == (1, 1)

    def test_single_var_degree3(self, field):
        v = read_k_pit(chain(field, (0, 2, field.p - 3, 1)))     # x(x-1)(x-2)
        assert records(v) == [((0,), 4, 4, (3,))]

    def test_zero_vanishes_nonzero_hit(self, field):
        # x1 + x2 is hit at the grid's second point; x1*x2 - x1*x2 at none
        plus = ObliviousAbp(field, 2, (UniMatrix(field, 0, (((0, 1), (1,)),)),
                                       UniMatrix(field, 1, (((1,),), ((0, 1),)))))
        assert records(read_k_pit(plus)) == [((0, 1), 4, 2, (0, 1))]
        cancel = ObliviousAbp(field, 2, (
            UniMatrix(field, 0, (((0, 1), (0, 1)),)),
            UniMatrix(field, 1, (((0, 1), ()), ((), (0, 1)))),
            UniMatrix(field, None, (((1,),), ((field.p - 1,),)))))
        v = read_k_pit(cancel)
        assert v.is_zero and records(v) == [((0, 1), 4, 4, None)]

    def test_guard(self, field, monkeypatch):
        """P_7's first round declares 3^13 grid points and is refused before
        any point is walked (about 0.5 ms for the whole call)."""
        program = gen_pn(7, field, with_poly=False).realization
        calls = Counter()
        for name in ("evaluate", "restrict", "expand"):
            def counted(self, *args, name=name, method=getattr(ObliviousAbp, name)):
                calls[name] += 1
                return method(self, *args)
            monkeypatch.setattr(ObliviousAbp, name, counted)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            with pytest.raises(GuardExceeded, match=r"grid of 1594323\+ points exceeds guard"):
                read_k_pit(program)
            times.append(time.perf_counter() - start)
        assert calls == Counter()
        assert min(times) < 0.01

    def test_degree_reaching_p_refused(self, f7):
        v = read_k_pit(chain(f7, (0, 0, 0, 0, 0, 0, 1)))      # x^6: d = 6 < 7
        assert records(v) == [((0,), 7, 2, (1,))]
        with pytest.raises(ValueError, match="no grid points hit every nonzero polynomial"):
            read_k_pit(chain(f7, (0, 1), (0, 0, 0, 0, 0, 0, 0, 1)))      # x1*x2^7


def x7_minus_x(f7):
    """Width-1 program for x^7 - x over F_7: a nonzero polynomial that
    vanishes at every point of F_7."""
    return ObliviousAbp(f7, 1, (UniMatrix(f7, 0, (((0, 6, 0, 0, 0, 0, 0, 1),),)),))


def read_two_x7_minus_x(f7):
    """x^7 - x over F_7 as x^4 * x^3 + x * 6, x read twice: each layer's
    degree is below 7, but x's degree bound, their sum, is 7."""
    return ObliviousAbp(f7, 1, (UniMatrix(f7, 0, (((0, 0, 0, 0, 1), (0, 1)),)),
                                UniMatrix(f7, 0, (((0, 0, 0, 1),), ((6,),)))))


class TestSmallFieldRefusal:
    @pytest.mark.parametrize("program", [x7_minus_x, read_two_x7_minus_x])
    @pytest.mark.parametrize("generator", ["random", "external"])
    def test_every_generator_refuses_degree_p(self, f7, tmp_path, program, generator):
        # every point of F_7 is a zero of x^7 - x, so these points would read
        # the nonzero program as zero
        a = program(f7)
        assert str(a.expand()) == "x1^7 + 6*x1"
        path = tmp_path / "points.txt"
        path.write_text("".join(f"{x}\n" for x in range(7)))
        with pytest.raises(ValueError, match=f"^degree bound 7 >= p = 7: no {generator} "
                                             "points hit every nonzero polynomial"):
            read_k_pit(a, generator, count=50, path=path)

    def test_read_k_pit_refuses_degree_p(self, f7):
        a = x7_minus_x(f7)
        assert str(a.expand()) == "x1^7 + 6*x1"
        with pytest.raises(ValueError, match="no grid points hit every nonzero polynomial"):
            read_k_pit(a)

    def test_degree_below_p_still_decided(self, f7):
        # x^6 - 1 vanishes on F_7 minus {0} but not at 0
        a = ObliviousAbp(f7, 1, (UniMatrix(f7, 0, (((6, 0, 0, 0, 0, 0, 1),),)),))
        verdict = read_k_pit(a)
        assert not verdict.is_zero and verdict.witness == (0,)


class TestGenerators:
    def test_grid_dispatch_matches(self, field):
        """The default generator is the grid, and a read-once program's one
        round stops at the first grid point, in product order, where the
        program is nonzero."""
        rng = random.Random(29)
        for i in range(20):
            a = random_roabp(rng, field, 3, 2, entry_degree=2).abp
            v = read_k_pit(a, seed=i)
            assert v == read_k_pit(a, "grid", seed=i)
            grid = list(itertools.product(*(range(d + 1) for d in a.individual_degrees())))
            hits = [pt for pt in grid if a.evaluate(pt) != 0]
            assert records(v) == [((0, 1, 2), len(grid),
                                   grid.index(hits[0]) + 1 if hits else len(grid),
                                   hits[0] if hits else None)]

    def test_random_generator_hits_random_roabps(self, field):
        rng = random.Random(30)
        tried = 0
        for i in range(200):
            n = rng.randint(1, 5)
            w = rng.randint(1, 3)
            part = random_roabp(rng, field, n, w, entry_degree=rng.randint(0, 2))
            if part.abp.expand().is_zero:
                continue
            tried += 1
            v = read_k_pit(part.abp, "random", seed=i, count=(n * w * 2) ** 2)
            assert not v.is_zero and part.abp.evaluate(v.witness) != 0
        assert tried >= 150

    def test_random_seed_determinism(self, field):
        a = chain(field, (0, 1), (1, 1), (2, 0, 1))
        nine = read_k_pit(a, "random", seed=9, count=50)
        assert nine == read_k_pit(a, "random", seed=9, count=50)
        ten = read_k_pit(a, "random", seed=10, count=50)
        assert nine.iterations[0].chosen != ten.iterations[0].chosen

    def test_external_round_trip(self, field, tmp_path):
        # x1*(x2 - 4)*x3 is zero at the first two points, not at the third
        path = tmp_path / "points.txt"
        path.write_text("# demo points\n0 1 2\n3, 4, 5\n\n6 7 8\n")
        v = read_k_pit(chain(field, (0, 1), (field.p - 4, 1), (0, 1)), "external",
                       path=path)
        assert records(v) == [((0, 1, 2), 3, 3, (6, 7, 8))]

    def test_external_arity_error(self, field, tmp_path):
        # a bad line is named by file and line number
        path = tmp_path / "bad.txt"
        for text, message in [("1 2\n", "1: expected 3 values, got 2"),
                              ("0 1 2\n# a comment\n1, x, 2\n", "3: non-integer entry")]:
            path.write_text(text)
            with pytest.raises(ValueError, match=f"^{path}:{message}$"):
                read_k_pit(chain(field, (0, 1), (0, 1), (0, 1)), "external", path=path)

    def test_external_missing_file(self, field):
        with pytest.raises(OSError):
            read_k_pit(chain(field, (0, 1)), "external", path="no/such/file.txt")
        with pytest.raises(ValueError, match="needs a points file path"):
            read_k_pit(chain(field, (0, 1)), "external")

    def test_unknown_generator(self, field):
        with pytest.raises(ValueError, match="unknown generator 'quantum'"):
            read_k_pit(chain(field, (0, 1)), "quantum")


class TestReadKPit:
    def test_zero_layer_program(self, field):
        layers = (UniMatrix(field, 0, (((0, 1),),)),
                  UniMatrix(field, 1, (((),),)))
        v = read_k_pit(ObliviousAbp(field, 2, layers))
        assert v.is_zero
        assert v.witness is None

    def test_q2_nonzero_with_witness(self, field):
        q2 = gen_qn(2, field)
        v = read_k_pit(q2.realization)
        assert not v.is_zero
        assert q2.realization.evaluate(v.witness) != 0

    def test_cancelling_branches_zero(self, field):
        # x1*x2 - x1*x2 as two parallel width-1 chains
        layers = (
            UniMatrix(field, 0, (((0, 1), (0, 1)),)),
            UniMatrix(field, 1, (((0, 1), ()), ((), (0, 1)))),
            UniMatrix(field, None, (((1,),), ((100,),))),
        )
        a = ObliviousAbp(field, 2, layers)
        assert a.expand().is_zero
        v = read_k_pit(a)
        assert v.is_zero

    def test_constant_program(self, field):
        a = ObliviousAbp(field, 0, (UniMatrix.constant(field, ((5,),)),))
        v = read_k_pit(a)
        assert not v.is_zero
        assert v.witness == ()
        z = ObliviousAbp(field, 0, (UniMatrix.constant(field, ((0,),)),))
        assert read_k_pit(z).is_zero

    def test_matches_oracle_small_corpus(self, field):
        rng = random.Random(32)
        for i in range(60):
            k = rng.randint(1, 3)
            n = rng.randint(1, 6)
            roll = rng.random()
            zero_kind = "cancel" if roll < 0.15 else (
                "zero_layer" if roll < 0.25 else None)
            a = random_read_k_abp(rng, field, n, k, rng.randint(1, 3),
                                  max_entry_degree=2, term_budget=5000,
                                  zero_kind=zero_kind)
            oracle_nonzero = not a.expand().is_zero
            v = read_k_pit(a, seed=i)
            assert v.is_zero == (not oracle_nonzero)
            if not v.is_zero:
                assert a.evaluate(v.witness) != 0

    def test_hits_two_pass_corpus(self, field):
        rng = random.Random(31)
        from abpkit.corpus import random_k_pass_abp
        checked = 0
        for i in range(60):
            n = rng.randint(1, 5)
            w = rng.randint(1, 2)
            a = random_k_pass_abp(rng, field, n, 2, w, entry_degree=1)
            if a.expand().is_zero:
                continue
            checked += 1
            v = read_k_pit(a, seed=i)
            assert not v.is_zero and a.evaluate(v.witness) != 0
        assert checked >= 40

    def test_soundness_under_random_generator(self, field):
        rng = random.Random(33)
        for i in range(25):
            a = random_read_k_abp(rng, field, rng.randint(1, 5),
                                  rng.randint(1, 2), 2, 1, term_budget=2000)
            v = read_k_pit(a, generator="random", seed=i, count=40)
            if not v.is_zero:
                assert a.evaluate(v.witness) != 0

    def test_subset_quality_and_iteration_count(self, field):
        rng = random.Random(34)
        for i in range(30):
            k = rng.randint(1, 3)
            n = rng.randint(1, 8)
            a = random_read_k_abp(rng, field, n, k, 2, 1, term_budget=3000)
            v = read_k_pit(a, seed=i)
            assert len(v.iterations) <= iteration_bound(n, max(k, 1))
            for rec in v.iterations:
                assert len(rec.subset) >= rec.size_floor - 1e-9
                assert len(rec.subset) >= 1

    def test_fastpath_and_recursion_agree(self, field, monkeypatch):
        recursions = {}

        def counted(*args, **kwargs):
            key = pit.DEFAULT_FASTPATH_TERMS
            recursions[key] = recursions.get(key, 0) + 1
            return read_k_pit(*args, **kwargs)
        monkeypatch.setattr(pit, "read_k_pit", counted)
        rng = random.Random(35)
        for i in range(12):
            a = random_read_k_abp(rng, field, rng.randint(2, 6), 2, 2, 1,
                                  term_budget=3000,
                                  zero_kind="cancel" if i % 3 == 0 else None)
            monkeypatch.setattr(pit, "DEFAULT_FASTPATH_TERMS", 10 ** 6)
            fast = read_k_pit(a, seed=i)
            monkeypatch.setattr(pit, "DEFAULT_FASTPATH_TERMS", 1)
            slow = read_k_pit(a, seed=i)
            assert fast.is_zero == slow.is_zero
        assert recursions.get(10 ** 6, 0) < recursions.get(1, 0)

    def test_recursion_refusal_propagates(self, field, monkeypatch):
        """Only the capped expansion's refusal is caught: a refusal of the
        recursive test it leads to (its point guard) reaches the caller."""
        def refused(*args, **kwargs):
            raise GuardExceeded("recursion refused")
        real = pit.read_k_pit
        monkeypatch.setattr(pit, "read_k_pit", refused)
        monkeypatch.setattr(pit, "DEFAULT_FASTPATH_TERMS", 1)
        zero = random_read_k_abp(random.Random(2), field, 4, 2, 2, 1, term_budget=3000,
                                 zero_kind="cancel")
        with pytest.raises(GuardExceeded, match="^recursion refused$"):
            real(zero)

    def test_recursion_prunes_with_the_callers_k(self, f7, monkeypatch, tmp_path):
        """A recursive test gets the candidate's restriction padded for the
        variables still free, so it prunes with its caller's k.  Here k = 2
        and the first round walks the file's points over x2, x3, x4; with a
        fast-path limit of 1 its first candidate recurses on a program that
        reads x1 and x5 once each.  That test pads both to two reads and the
        fixed x2, x3, x4 with two each, so its one round takes all five
        variables and the three-column file is refused there.  Padding every
        variable up to k in variable order took four; no padding, k = 1."""
        spec = [(0, (((5, 6), (5, 6)),)), (3, (((1,), ()), ((), (1,)))),
                (1, (((1, 6, 4), ()), ((), (1, 6, 4)))), (2, (((5,), ()), ((), (5,)))),
                (3, (((6, 0, 1), ()), ((), (6, 0, 1)))), (1, (((0, 2, 6), ()), ((), (0, 2, 6)))),
                (4, (((6,), ()), ((), (6,)))), (2, (((3, 4), ()), ((), (3, 4)))),
                (None, (((6,),), ((1,),)))]
        program = ObliviousAbp(f7, 5, tuple(UniMatrix(f7, v, e) for v, e in spec))
        path = tmp_path / "points.txt"
        path.write_text("5 6 3\n3 5 6\n4 3 1\n2 0 0\n1 3 1\n2 5 3\n6 5 6\n")
        rounds = []
        round_points = pit._round_points
        monkeypatch.setattr(pit, "_round_points", lambda work, subset, k, *args: (
            rounds.append((subset, k)) or round_points(work, subset, k, *args)))
        monkeypatch.setattr(pit, "DEFAULT_FASTPATH_TERMS", 1)
        with pytest.raises(ValueError, match=r":1: expected 5 values, got 3$"):
            read_k_pit(program, "external", 7, path=path)
        assert rounds == [((1, 2, 3), 2), ((0, 1, 2, 3, 4), 2)]

    @pytest.mark.parametrize("n, k", [(5, 2), (6, 1)])
    def test_one_expansion_per_round(self, field, monkeypatch, n, k):
        """A zero round costs two probes of its first candidate and one
        expansion of the round's program, however many points it has and
        whether or not its candidates read anything (with k = 1 they read
        nothing); a nonzero program whose first candidates hit expands
        nothing."""
        calls = count_calls(monkeypatch, {"expand": 0, "evaluate": 0})
        zero = random_read_k_abp(random.Random(2), field, n, k, 2, 1, term_budget=3000,
                                 zero_kind="cancel")
        v = read_k_pit(zero)
        assert v.is_zero and len(v.iterations) == 1
        assert v.iterations[0].points_tried == v.iterations[0].h_size >= 8
        assert calls == {"expand": 1, "evaluate": 2}
        calls.update(expand=0)
        nonzero = random_read_k_abp(random.Random(1), field, n, k, 2, 1, term_budget=3000)
        v = read_k_pit(nonzero)
        assert not v.is_zero
        assert all(rec.points_tried == 1 for rec in v.iterations)
        assert calls["expand"] == 0

    def test_zero_layer_round_restricts_nothing(self, field, monkeypatch):
        """A program with an all-zero layer estimates 0 terms, so its round is
        decided by the round's one expansion, which the zero layer answers at
        once.  Criterion 1's program k3#25 has one; estimated at 6,480 terms,
        it restricted, probed and expanded each of its 54 points."""
        program, zero_kind = criterion_1_k3(field, 25)
        assert zero_kind == "zero_layer"
        calls = count_calls(monkeypatch, {"restrict": 0, "evaluate": 0, "expand": 0})
        v = read_k_pit(program, seed=25)
        assert v.is_zero
        assert [(r.h_size, r.points_tried, r.chosen) for r in v.iterations] == [
            (54, 54, None)]
        assert calls == {"restrict": 0, "evaluate": 1, "expand": 1}
        assert program.estimated_terms() == 0

    @pytest.mark.parametrize("index, want", [
        (90, [((0, 5), 15, 1, (0, 0)), ((3, 6), 4, 1, (0, 0)), ((2, 4), 5, 1, (0, 0)),
              ((1,), 4, 1, (0,))]),
        (64, [((4, 5, 7), 18, 1, (0, 0, 0)), ((2, 3), 28, 1, (0, 0)), ((1, 6), 18, 1, (0, 0)),
              ((0,), 2, 1, (0,))])])
    def test_second_probe_spares_the_expansion(self, field, monkeypatch, index, want):
        """Criterion 1's nonzero k3#90 and k3#64 each have a round whose first
        probe misses on a program with a path and a small degree box.  A
        second probe of that candidate hits, so neither expands anything;
        each used to expand that round's whole program (1,120 and 840 terms)."""
        program, zero_kind = criterion_1_k3(field, index)
        assert zero_kind is None
        calls = count_calls(monkeypatch, {"expand": 0})
        v = read_k_pit(program, seed=index)
        assert (v.is_zero, v.witness) == (False, (0,) * program.num_vars)
        assert records(v) == want
        assert calls == {"expand": 0}

    def test_accepted_rounds_skip_the_relaxation(self, field, monkeypatch):
        """Every round program after the first is an accepted candidate's
        restriction, so nonzero, and is marked as having a nonzero read-once
        relaxation: no expansion of it runs the span check.  Over grid
        verdicts of P_3, Q_3, Q_4 and P_4 the check ran 3 times, each time on
        such a program."""
        computed = []
        relaxation_zero = ObliviousAbp.relaxation_zero
        spy = cached_property(lambda self: computed.append(self) or relaxation_zero.func(self))
        spy.__set_name__(ObliviousAbp, "relaxation_zero")
        monkeypatch.setattr(ObliviousAbp, "relaxation_zero", spy)
        for gen, n in [(gen_pn, 3), (gen_qn, 3), (gen_qn, 4), (gen_pn, 4)]:
            assert not read_k_pit(gen(n, field, with_poly=False).realization).is_zero
        assert computed == []

    def test_cancelling_lanes_decided_by_relaxation(self, field, monkeypatch):
        """Two equal lanes over 18 variables read twice (the fixture
        ``cancel_zero_wide.json``) have a zero read-once relaxation, so every
        candidate of the one zero round is decided without an expansion.
        Each one used to give up its capped expansion and recurse: 217 calls
        and about 35 s, and ``expand`` refused 7,464,960 estimated terms."""
        program = random_read_k_abp(random.Random(7), field, 18, 2, 2, max_entry_degree=2,
                                    term_budget=10 ** 9, zero_kind="cancel")
        assert to_canonical_text(program) == (FIXTURES / "cancel_zero_wide.json").read_text()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].num_vars)
            return read_k_pit(*args, **kwargs)
        monkeypatch.setattr(pit, "read_k_pit", counted)
        v = pit.read_k_pit(program)
        assert v.is_zero and len(v.iterations) == 1 and len(calls) == 1
        assert program.estimated_terms() == 7464960
        assert program.expand().is_zero

    def test_random_default_count_zero_round(self, field):
        """The default random count sizes this round at 4096 points; a zero
        round still ends after one expansion, with every point counted."""
        zero = random_read_k_abp(random.Random(2), field, 5, 2, 2, 1, term_budget=3000,
                                 zero_kind="cancel")
        v = read_k_pit(zero, generator="random")
        assert v.is_zero
        assert [(rec.h_size, rec.points_tried) for rec in v.iterations] == [(4096, 4096)]

    def test_random_points_drawn_lazily(self, field, monkeypatch):
        """A round that hits at its first point draws that one point, not the
        declared count: here one point of the five subset variables and one
        five-value probe, against 10^5 declared points.  A count over the
        guard draws none."""
        a = random_read_k_abp(random.Random(0), field, 5, 1, 2, 1, term_budget=3000)
        draws = {"n": 0}
        draw = PrimeField.random

        def counted(self, rng):
            draws["n"] += 1
            return draw(self, rng)
        monkeypatch.setattr(PrimeField, "random", counted)
        v = read_k_pit(a, generator="random", count=10 ** 5)
        assert not v.is_zero
        [rec] = v.iterations
        assert (len(rec.subset), rec.h_size, rec.points_tried) == (5, 10 ** 5, 1)
        assert draws["n"] == len(rec.subset) + a.num_vars
        # a count over the point guard is refused before any draw
        with pytest.raises(GuardExceeded, match="1000001 random points exceeds guard"):
            read_k_pit(a, generator="random", count=10 ** 6 + 1)
        assert draws["n"] == len(rec.subset) + a.num_vars

    def test_verdict_determinism(self, field):
        rng = random.Random(36)
        a = random_read_k_abp(rng, field, 6, 2, 3, 1, term_budget=3000)
        v1 = read_k_pit(a, seed=5)
        v2 = read_k_pit(a, seed=5)
        assert v1 == v2


# Grid verdicts on P_4 and Q_4 as the recursive test gave them: (subset,
# h_size, points_tried, chosen) per round, then each round's size floor.
P4_VERDICT = ((0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0), [
    ((0, 4, 8, 12, 13, 14, 15), 2187, 28, (0, 0, 0, 1, 0, 0, 0)),
    ((1, 5, 9, 10, 11), 243, 10, (0, 0, 1, 0, 0)),
    ((2, 6, 7), 27, 4, (0, 1, 0)),
    ((3,), 3, 2, (1,)),
], [0.04938271604938271, 0.037037037037037035, 0.024691358024691357,
    0.012345679012345678])
Q4_VERDICT = ((0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1), [
    ((8, 9, 10, 11), 16, 2, (0, 0, 0, 1)),
    ((0, 4), 25, 2, (0, 1)),
    ((3, 7), 25, 2, (0, 1)),
    ((1, 6), 25, 1, (0, 0)),
    ((2, 5), 25, 7, (1, 1)),
], [3.1692578903312194e-08, 3.0126326106255796e-08, 2.9062222993920346e-08,
    2.7625962846339005e-08, 2.5333119627514897e-08])
P6_VERDICT = ((0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1,
               0, 0, 0, 0, 1, 0, 0, 0, 0, 0), [
    ((0, 6, 12, 18, 24, 30, 31, 32, 33, 34, 35), 177147, 244,
     (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    ((1, 7, 13, 19, 25, 26, 27, 28, 29), 19683, 82, (0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ((2, 8, 14, 20, 21, 22, 23), 2187, 28, (0, 0, 0, 1, 0, 0, 0)),
    ((3, 9, 15, 16, 17), 243, 10, (0, 0, 1, 0, 0)),
    ((4, 10, 11), 27, 4, (0, 1, 0)),
    ((5,), 3, 2, (1,)),
], [0.07407407407407407, 0.06172839506172839, 0.04938271604938271,
    0.037037037037037035, 0.024691358024691357, 0.012345679012345678])


class TestHardFamilies:
    """P_n and Q_n candidates are estimated far above the fast-path limit but
    have no source-sink path or expand within it, so every generator decides
    them by reachability or capped expansion and never recurses."""

    @pytest.fixture
    def recursions(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].num_vars)
            return read_k_pit(*args, **kwargs)
        monkeypatch.setattr(pit, "read_k_pit", counted)
        return calls

    @pytest.mark.parametrize("gen, n, want", [(gen_pn, 4, P4_VERDICT),
                                              (gen_qn, 4, Q4_VERDICT),
                                              (gen_pn, 6, P6_VERDICT)])
    def test_pinned_verdicts(self, field, gen, n, want):
        program = gen(n, field, with_poly=False).realization
        v = read_k_pit(program)
        witness, records, floors = want
        assert (v.is_zero, v.witness) == (False, witness)
        assert [(r.subset, r.h_size, r.points_tried, r.chosen)
                for r in v.iterations] == records
        assert [r.size_floor for r in v.iterations] == pytest.approx(floors, rel=1e-12)
        assert program.evaluate(v.witness) != 0

    def test_pn_zero_candidates_decided_by_reachability(self, field, monkeypatch):
        """P_6's zero candidates have no source-sink path of nonzero entries,
        so none of them reaches the term-map loop; only the last two rounds'
        nonzero candidates do.  Deciding each by an all-zero layer, the term
        maps were built 242, 80, 26, 8, 1 and 1 times.  The loop is counted by
        its one call of ``Layout`` (the bit fields of its keys), each round by
        its one call of ``_choose_subset``."""
        per_round = []
        layout, choose_subset = abpmod.Layout, pit._choose_subset

        def counted_layout(*args, **kwargs):
            per_round[-1] += 1
            return layout(*args, **kwargs)

        def counted_choose_subset(order):
            per_round.append(0)
            return choose_subset(order)
        monkeypatch.setattr(abpmod, "Layout", counted_layout)
        monkeypatch.setattr(pit, "_choose_subset", counted_choose_subset)
        v = read_k_pit(gen_pn(6, field, with_poly=False).realization)
        assert [r.points_tried for r in v.iterations] == [244, 82, 28, 10, 4, 2]
        assert len(per_round) == 6 and per_round[0] <= 2
        assert all(got <= most for got, most in zip(per_round, [0, 0, 0, 0, 1, 1]))

    def test_p6_candidates_decided_on_their_restriction(self, field, monkeypatch,
                                                        recursions):
        """After a round's first miss, P_6's later candidates are restricted
        first: one with no source-sink path is zero with no probe, and the
        accepted one's restriction is the next round's program.  Probing the
        whole program and estimating its terms for every candidate took 368
        ``evaluate`` and 362 ``estimated_terms`` calls in all.  Each candidate
        still draws its probe point (36 values), except after the first miss
        of the last two rounds, which draw one more for the second probe and
        are then expanded once."""
        per_round, draws = [], []
        random_element = PrimeField.random
        monkeypatch.setattr(PrimeField, "random",
                            lambda self, rng: draws.append(1) or random_element(self, rng))
        for name in ("evaluate", "estimated_terms", "restrict"):
            def counted(self, *args, name=name, method=getattr(ObliviousAbp, name)):
                per_round[-1][name] += 1
                return method(self, *args)
            monkeypatch.setattr(ObliviousAbp, name, counted)
        choose_subset = pit._choose_subset

        def counted_choose_subset(order):
            per_round.append(Counter())
            return choose_subset(order)
        monkeypatch.setattr(pit, "_choose_subset", counted_choose_subset)
        v = read_k_pit(gen_pn(6, field, with_poly=False).realization)
        assert [r.points_tried for r in v.iterations] == [244, 82, 28, 10, 4, 2]
        assert len(per_round) == 6 and recursions == []
        per_round[-1]["evaluate"] -= 2      # the verdict's checks at 0 and at the witness
        for calls, record in zip(per_round, v.iterations):
            assert calls["evaluate"] <= 2 and calls["estimated_terms"] <= 1
            assert calls["restrict"] <= record.points_tried
        assert len(draws) == 36 * (244 + 82 + 28 + 10 + 2 + 2)

    def test_q4_builds_without_revalidating(self, field, monkeypatch):
        """Restricted programs, their folded layers and read sequences are
        valid by construction and skip ``__post_init__``.  Rebuilding every
        restriction and sequence through it took 60, 9 and 25 calls.  Q_4
        never recurses, so nothing is padded."""
        program = gen_qn(4, field, with_poly=False).realization
        calls = Counter()
        for cls in (UniMatrix, ObliviousAbp, ReadSequence):
            def counted(self, name=cls.__name__, post_init=cls.__post_init__):
                calls[name] += 1
                post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        assert not read_k_pit(program).is_zero
        assert calls["UniMatrix"] == 0
        assert calls["ObliviousAbp"] == 0
        assert calls["ReadSequence"] == 0

    @pytest.mark.parametrize("gen, n", [(gen_pn, 4), (gen_qn, 5), (gen_pn, 5)])
    def test_no_recursion(self, field, recursions, gen, n):
        program = gen(n, field, with_poly=False).realization
        v = read_k_pit(program)
        assert not v.is_zero
        assert program.evaluate(v.witness) != 0
        assert recursions == []

    @pytest.mark.parametrize("generator", ["random", "external"])
    def test_zeroed_pn_decided_without_recursion(self, field, recursions, tmp_path,
                                                 generator):
        # emptying P_4's first or P_5's last layer makes it zero; its first
        # round fixes ``arity`` variables, so a file with that many columns
        # fits only that round
        for n, layer, arity in [(4, 0, 7), (5, -1, 9)]:
            program = gen_pn(n, field, with_poly=False).realization
            layers = list(program.layers)
            old = layers[layer]
            layers[layer] = UniMatrix(field, old.var,
                                      tuple(((),) * len(row) for row in old.entries))
            zeroed = ObliviousAbp(field, program.num_vars, tuple(layers))
            path = tmp_path / "points.txt"
            path.write_text("".join(" ".join(map(str, range(i, i + arity))) + "\n"
                                    for i in range(5)))
            v = read_k_pit(zeroed, generator, count=30, path=path)
            assert v.is_zero
            assert [(len(r.subset), r.points_tried, r.chosen) for r in v.iterations] == [
                (arity, 30 if generator == "random" else 5, None)]
        assert recursions == []


class TestCartesianStructure:
    """The test walks one path through the paper's hitting set, the product
    H_1 x ... x H_t of its rounds' point sets, each over its round's subset."""

    def test_product_set_matches_iteration_subsets(self, field):
        rng = random.Random(38)
        hit_checks = 0
        for _ in range(20):
            n = rng.randint(1, 5)
            a = random_read_k_abp(rng, field, n, rng.randint(1, 2), 2, 1, term_budget=2000)
            v = read_k_pit(a)
            assert v.is_zero == a.expand().is_zero
            subsets = [rec.subset for rec in v.iterations]
            if v.is_zero:
                assert v.iterations[-1].chosen is None
                continue
            assert sorted(x for g in subsets for x in g) == list(range(n))
            degs = a.individual_degrees()
            for rec in v.iterations:
                assert rec.chosen == tuple(v.witness[x] for x in rec.subset)
                assert all(c <= degs[x] for x, c in zip(rec.subset, rec.chosen))
            assert a.evaluate(v.witness) != 0
            hit_checks += 1
        assert hit_checks >= 12

    def test_random_rounds_sized_as_the_test_walks_them(self, field):
        """The second round's width is smaller once the first round's subset
        is fixed, and the default random count sizes the round by it."""
        rng = random.Random(222)
        k = rng.choice((2, 3))
        a = random_read_k_abp(rng, field, rng.randint(2, 5), k, rng.randint(2, 3), 1,
                              term_budget=2000)
        v = read_k_pit(a, generator="random")
        assert [rec.h_size for rec in v.iterations] == [1024, 1]


class TestIterationBound:
    def test_worked_example(self):
        # 4^(1/2) - (4 - 4^(1/2)/1)^(1/2) = 2 - sqrt(2) ~ 0.586 >= 0.5
        assert iteration_bound_check(4, Fraction(1, 2), 1) is True

    def test_string_and_float_inputs(self):
        assert iteration_bound_check(4, "0.5", 1) is True
        assert iteration_bound_check(4, 0.5, 1) is True

    def test_large_n_approaches_limit(self):
        for n in (10, 100, 1000, 10 ** 4, 10 ** 6):
            assert iteration_bound_check(n, Fraction(1, 10), 3)
            assert iteration_bound_check(n, Fraction(9, 10), 9)

    def test_spot_grid(self):
        for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            for r in (1, 4, 9):
                for n in (1, 2, 7, 50, 900):
                    assert iteration_bound_check(n, p, r)

    def test_bound_without_variables(self):
        # no variable, no round: only the closing evaluation
        assert iteration_bound(0, 3) == 1.0

    def test_iroot_refuses_a_negative_radicand(self):
        with pytest.raises(ValueError, match="^negative radicand$"):
            pit._iroot(-1, 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            iteration_bound_check(5, Fraction(3, 2), 1)
        with pytest.raises(ValueError):
            iteration_bound_check(0, Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            iteration_bound_check(5, Fraction(1, 2), 0)

    def test_rejects_large_denominator(self, monkeypatch):
        # the radicands have bits * b bits: at b = 10^5 one call took 5.2 s,
        # and 0.123456789 would ask for a shift by 32 * 10^9 bits
        roots = []
        memo = pit._scaled_root.cache_info()
        monkeypatch.setattr(pit, "_iroot", lambda value, k: roots.append(k))
        for p in (Fraction(1, 10 ** 5), "0.123456789", 1e-5, Fraction(10 ** 4, 10 ** 4 + 1)):
            with pytest.raises(ValueError, match="denominator"):
                iteration_bound_check(1000, p, 1)
        assert roots == []
        # the patched root never ran, so it left no entry in the roots' memo
        assert pit._scaled_root.cache_info() == memo
        monkeypatch.undo()
        assert iteration_bound_check(1000, Fraction(1, pit.MAX_P_DENOMINATOR), 1)

    @pytest.mark.parametrize("bad", [dict(n=100.0), dict(r=2.0), dict(bits=2.5),
                                     dict(n=True, r=True), dict(r=True), dict(bits=True),
                                     dict(n=Fraction(100)), dict(r="2")])
    def test_rejects_non_integer_parameters(self, bad):
        # a float died with a TypeError from a shift, and a bool was taken as 1
        args = dict(n=100, p=Fraction(1, 2), r=2, bits=32)
        assert iteration_bound_check(**args)
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            iteration_bound_check(**{**args, **bad})

    def test_rejects_nonpositive_bits(self):
        # a zero bits would double to 0 forever, a negative one fail on a shift
        for bits in (0, -3):
            with pytest.raises(ValueError, match="bits"):
                iteration_bound_check(10 ** 4, Fraction(1, 2), 9, bits=bits)

    @pytest.mark.parametrize("n, p, r", [(10 ** 6, Fraction(1, 2), 2),
                                         (50, Fraction(9, 10), 9),
                                         (7, Fraction(1, 3), 4)])
    def test_coarse_start_doubles_to_the_same_decision(self, monkeypatch, n, p, r):
        # one enclosure per precision: more than one call means bits doubled
        want = iteration_bound_check(n, p, r)
        calls = []
        real = pit._enclosures

        def counted(*args):
            calls.append(args[-1])
            return real(*args)
        monkeypatch.setattr(pit, "_enclosures", counted)
        assert iteration_bound_check(n, p, r, bits=1) is want
        assert len(calls) > 1

    def test_violated_inequality_detected(self):
        # the inequality holds on every valid input, so check the decision is
        # exact on a tight case: f(n) decreases toward (1-p)/r, so
        # f(10^6) - rhs is tiny but positive
        assert iteration_bound_check(10 ** 6, Fraction(1, 2), 2)

    @pytest.mark.parametrize("n, p, r", [(4, Fraction(1, 2), 1), (10 ** 6, Fraction(1, 2), 2),
                                         (50, Fraction(9, 10), 9)])
    def test_false_claim_decided_false(self, monkeypatch, n, p, r):
        # only a false claim reaches False: enclose the second term as n^(1-p)
        # itself, which leaves 0 on the left, below (1-p)/r
        real = pit._enclosures
        monkeypatch.setattr(pit, "_enclosures", lambda *args: real(*args)[:2] * 2)
        assert iteration_bound_check(n, p, r) is False
