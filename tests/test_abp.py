"""Program model: evaluation, expansion oracle, restriction, classification,
and the file format."""

import json
import random

import pytest

from abpkit import abp as abpio
from abpkit.abp import ObliviousAbp, _missing_reads, _pad, padded_reads, validate
from abpkit.algebra import GuardExceeded, PrimeField, SparsePoly, UniMatrix
from abpkit.corpus import random_read_k_abp
from abpkit.hardpoly import gen_pn, gen_qn
from abpkit.sequences import ReadSequence


def chain(field, reads):
    """Width-1 program multiplying the named variables."""
    return ObliviousAbp(field, max(reads) + 1,
                        tuple(UniMatrix(field, v, (((0, 1),),)) for v in reads))


class TestEvaluate:
    def test_two_layer_product(self, field):
        a = chain(field, [0, 1])
        assert a.evaluate([2, 3]) == 6

    def test_zero_matrix_layer_annihilates(self, field):
        layers = (UniMatrix(field, 0, (((0, 1), (1,)),)),
                  UniMatrix(field, 1, (((),), ((),))))
        a = ObliviousAbp(field, 2, layers)
        for pt in ([0, 0], [5, 7], [100, 1]):
            assert a.evaluate(pt) == 0

    def test_p2_at_all_ones(self, field):
        # four factors, each summing two ones
        assert gen_pn(2, field).realization.evaluate([1, 1, 1, 1]) == 16

    def test_wrong_point_length(self, field):
        with pytest.raises(ValueError, match=r"^point length 1 != num_vars 2$"):
            chain(field, [0, 1]).evaluate([1])


class TestExpand:
    def test_single_path(self, field):
        f = chain(field, [0, 1]).expand()
        assert f == SparsePoly(field, 2, {(1, 1): 1})

    def test_zero_layer_gives_zero_poly(self, field):
        layers = (UniMatrix(field, 0, (((0, 1),),)),
                  UniMatrix(field, 1, (((),),)))
        assert ObliviousAbp(field, 2, layers).expand().is_zero

    def test_zero_layer_decides_before_the_guard(self, field):
        # P_3 with its last layer emptied: zero, though its estimate is over
        # a guard of 100 and its partial products outgrow a guard of one term
        p3 = gen_pn(3, field, with_poly=False).realization
        last = p3.layers[-1]
        empty = UniMatrix(field, last.var, tuple(((),) * len(row) for row in last.entries))
        zeroed = ObliviousAbp(field, p3.num_vars, p3.layers[:-1] + (empty,))
        assert p3.estimated_terms() > 100
        with pytest.raises(GuardExceeded):
            p3.expand(guard=1)
        assert zeroed.expand(guard=100) == SparsePoly.zero(field, p3.num_vars)
        assert zeroed.expand(guard=1) == SparsePoly.zero(field, p3.num_vars)

    def test_no_path_without_a_zero_layer(self, field):
        # [[x_1, 0]] then [[0], [x_2]]: every layer has a nonzero entry, but
        # the source reaches only the vertex the second layer leaves by 0
        layers = (UniMatrix(field, 0, (((0, 1), ()),)),
                  UniMatrix(field, 1, (((),), ((0, 1),))))
        a = ObliviousAbp(field, 2, layers)
        assert not a.reaches_sink
        assert a.estimated_terms() == 0
        assert a.expand(guard=0) == SparsePoly.zero(field, 2)
        assert a.evaluate([3, 4]) == 0

    def test_p2_matches_independent_formula(self, field):
        v = [SparsePoly.variable(field, 4, i) for i in range(4)]
        direct = (v[0] + v[1]) * (v[2] + v[3]) * (v[0] + v[2]) * (v[1] + v[3])
        assert gen_pn(2, field).realization.expand() == direct

    def test_guard_refuses_never_truncates(self, field):
        # (1 + x_v)^5 over four variables read in turn: the partial product
        # after layer i has prod(e_v + 1) terms, 108 after layer 9
        a = ObliviousAbp(field, 4, tuple(UniMatrix(field, v, (((1, 1),),))
                                         for v in list(range(4)) * 5))
        with pytest.raises(GuardExceeded, match="^expansion after layer 9 holds 108 "
                                                "terms, more than guard 100$"):
            a.expand(guard=100)
        with pytest.raises(GuardExceeded, match="after layer 20 holds 1296 terms"):
            a.expand(guard=1295)
        assert len(a.expand(guard=1296).terms) == 6 ** 4

    def test_guard_counts_terms_not_the_degree_box(self, field):
        # x_1^5 ... x_4^5 is one term at every layer, though its degree box
        # holds 6^4 monomials
        a = chain(field, list(range(4)) * 5)
        assert a.estimated_terms() == 6 ** 4
        assert a.expand(guard=1) == SparsePoly(field, 4, {(5, 5, 5, 5): 1})

    def test_oracle_consistency_random(self, field):
        rng = random.Random(10)
        for _ in range(200):
            n = rng.randint(1, 6)
            k = rng.randint(1, 3)
            w = rng.randint(1, 3)
            a = random_read_k_abp(rng, field, n, k, w, max_entry_degree=2,
                                  term_budget=5000)
            f = a.expand()
            for _ in range(20):
                pt = [rng.randrange(field.p) for _ in range(n)]
                assert a.evaluate(pt) == f.evaluate(pt)


class TestRestrict:
    def test_restrict_one_variable(self, field):
        a = chain(field, [0, 1])
        r = a.restrict({0: 2})
        assert r.expand() == SparsePoly(field, 2, {(0, 1): 2})

    def test_restrict_all_matches_evaluate(self, field):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = random_read_k_abp(rng, field, n, 2, 2, 1, term_budget=2000)
            pt = [rng.randrange(field.p) for _ in range(n)]
            r = a.restrict(dict(enumerate(pt)))
            assert r.expand() == SparsePoly.const(field, n, a.evaluate(pt))

    @pytest.mark.parametrize("var", [-1, 2])
    def test_out_of_range_variable_refused(self, field, var):
        with pytest.raises(ValueError, match=rf"^assigned variable {var} out of range$"):
            chain(field, [0, 1]).restrict({0: 3, var: 1})

    def test_q2_restriction_single_matching(self, field):
        q2 = gen_qn(2, field)
        # z1 = 1, z2 = 0 leaves the first matching product (x1+y2)(x2+y1)
        r = q2.realization.restrict({4: 1, 5: 0})
        v = [SparsePoly.variable(field, 6, i) for i in range(6)]
        assert r.expand() == (v[0] + v[3]) * (v[1] + v[2])

    def test_restriction_soundness_random(self, field):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(2, 6)
            a = random_read_k_abp(rng, field, n, rng.randint(1, 3),
                                  rng.randint(1, 3), 1, term_budget=3000)
            sub = {i: rng.randrange(field.p) for i in range(n)
                   if rng.random() < 0.5}
            assert a.restrict(sub).expand() == a.expand().substitute(sub)


class TestValidate:
    def test_two_pass_same_order(self, field):
        cls = validate(chain(field, [0, 1, 0, 1]))
        assert cls.k == 2
        assert cls.is_k_pass
        assert cls.pass_orders == ((0, 1), (0, 1))

    def test_two_pass_varying(self, field):
        cls = validate(chain(field, [0, 1, 1, 0]))
        assert cls.k == 2
        assert not cls.is_k_pass
        assert cls.is_k_pass_varying_order
        assert cls.pass_orders == ((0, 1), (1, 0))

    def test_padding_added_for_underread_variable(self, field):
        # x3 read once inside a k=2 program gains one read, and a recursion's
        # padded program one identity layer
        a = chain(field, [0, 1, 0, 1, 2])
        assert validate(a).k == 2
        assert padded_reads(a) == [0, 1, 0, 1, 2, 2]
        padded = _pad(a, _missing_reads(a)[1])
        pads = padded.layers[len(a.layers):]
        assert len(pads) == 1 and pads[0].var == 2
        assert padded.read_counts() == {0: 2, 1: 2, 2: 2}
        # padding never changes the polynomial
        assert padded.expand() == a.expand()

    def test_k_matches_read_sequence(self, field):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 5)
            a = random_read_k_abp(rng, field, n, rng.randint(1, 3), 2, 1,
                                  term_budget=2000)
            cls = validate(a)
            seq = ReadSequence.from_order(padded_reads(a))
            assert cls.k == max(c for _, c in seq.entries)

    def test_read_sequence_requires_exact_k(self, field):
        with pytest.raises(ValueError, match="unequal occurrence counts"):
            ReadSequence.from_order(chain(field, [0, 1, 0]).read_order())

    def test_read_sequence_examples(self, field):
        seq = ReadSequence.from_order(padded_reads(chain(field, [0, 1, 0, 1])))
        assert seq.read_order(1) == [0, 1]
        assert seq.read_order(2) == [0, 1]
        seq = ReadSequence.from_order(padded_reads(chain(field, [0, 1, 1, 0])))
        assert seq.read_order(2) == [1, 0]

    def test_dimension_mismatch_is_structural_error(self, field):
        layers = (UniMatrix(field, 0, (((1,), (0, 1)),)),
                  UniMatrix(field, 1, (((1,),),)))
        with pytest.raises(ValueError):
            ObliviousAbp(field, 2, layers)

    def test_structural_refusals(self, field, f7):
        def layer(f, var):
            return UniMatrix(f, var, (((0, 1),),))
        with pytest.raises(ValueError, match=r"^layer 1 uses a different field$"):
            ObliviousAbp(field, 2, (layer(field, 0), layer(f7, 1)))
        for var in (2, -1):
            with pytest.raises(ValueError, match=rf"^layer 1 reads variable {var} out of range$"):
                ObliviousAbp(field, 2, (layer(field, 0), layer(field, var)))
        with pytest.raises(ValueError, match=r"^last layer must have a single column \(sink\)$"):
            ObliviousAbp(field, 1, (UniMatrix(field, 0, (((1,), (0, 1)),)),))


class TestRandomPrograms:
    @pytest.mark.parametrize("n, k, width, zero_kind, message", [
        (0, 2, 2, None, "n, k, width must be positive"),
        (3, 0, 2, None, "n, k, width must be positive"),
        (3, 2, -1, None, "n, k, width must be positive"),
        (3, 2, 2, "bogus", "unknown zero_kind 'bogus'"),
    ])
    def test_refusals(self, field, n, k, width, zero_kind, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_read_k_abp(random.Random(0), field, n, k, width, zero_kind=zero_kind)


class TestFileFormat:
    def test_round_trip(self, field, tmp_path):
        rng = random.Random(14)
        for i in range(10):
            a = random_read_k_abp(rng, field, rng.randint(1, 5),
                                  rng.randint(1, 3), 3, 2, term_budget=3000)
            path = tmp_path / f"abp_{i}.json"
            abpio.save(a, path)
            b = abpio.load(path)
            assert b.field == a.field
            assert b.num_vars == a.num_vars
            assert b.layers == a.layers
            # canonical: serialize(parse(serialize)) is byte-identical
            assert abpio.to_canonical_text(b) == abpio.to_canonical_text(a)

    def test_whitespace_insensitive(self, field):
        text = """
        {
          "field_prime": 101,   "num_vars": 2,
          "layers": [ {"var": 1, "matrix": [[[0, 1]]]},
                      {"var": 2, "matrix": [[[0, 1]]]} ]
        }
        """
        a = abpio.parse_text(text)
        assert a.evaluate([2, 3]) == 6

    def test_parse_error_has_position(self):
        with pytest.raises(ValueError, match=r"line \d+, column \d+"):
            abpio.parse_text("{ not json }")

    def test_schema_error_names_layer(self):
        with pytest.raises(ValueError, match="layer 0"):
            abpio.parse_text('{"field_prime": 101, "num_vars": 1, "layers": [{}]}')

    @pytest.mark.parametrize("padding", [True, "no"])
    def test_padding_key_ignored(self, tmp_path, padding):
        """A layer's "padding" key, which the loader does not read, changes
        nothing: the file expands as without it and its canonical text
        leaves it out."""
        layers = [{"var": 1, "matrix": [[[0, 1], [2]]]},
                  {"var": 2, "matrix": [[[1]], [[0, 3]]]}]
        plain = {"field_prime": 7, "num_vars": 2, "layers": layers}
        tagged = {**plain, "layers": [layers[0], {**layers[1], "padding": padding}]}
        for name, doc in (("plain", plain), ("tagged", tagged)):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        a, b = (abpio.load(tmp_path / f"{name}.json") for name in ("plain", "tagged"))
        assert b.expand() == a.expand()
        assert abpio.to_canonical_text(b) == abpio.to_canonical_text(a)
        assert "padding" not in abpio.to_canonical_text(b)
