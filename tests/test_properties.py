"""Property checks of the fast exact paths against slower references.

``reference_expand`` is the straightforward expansion that ``expand`` used to
be: every entry becomes a SparsePoly and the layer product is formed with the
public ``+`` and ``*``.  The fast ``expand`` must agree with it exactly, every
polynomial the library builds must already be in the canonical form the
public constructor would produce, and the grid identity test must either agree
with the expansion oracle or refuse.  Mutated program documents must either
load and round-trip byte-identically through the canonical text, or be
refused with a ValueError.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpkit.abp import ObliviousAbp, parse_text, to_canonical_text, to_json_obj
from abpkit.algebra import PrimeField, SparsePoly, UniMatrix
from abpkit.pit import read_k_pit

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def reference_expand(abp: ObliviousAbp) -> SparsePoly:
    n = abp.num_vars
    row = [SparsePoly.const(abp.field, n, 1)]
    for layer in abp.layers:
        out = []
        for j in range(layer.width_out):
            acc = SparsePoly.zero(abp.field, n)
            for i, poly in enumerate(row):
                if poly.is_zero:
                    continue
                terms = {}
                for e, c in enumerate(layer.entries[i][j]):
                    exps = [0] * n
                    if e:
                        exps[layer.var] = e
                    terms[tuple(exps)] = c
                acc = acc + poly * SparsePoly(abp.field, n, terms)
            out.append(acc)
        row = out
    return row[0]


def assert_canonical(f: SparsePoly) -> None:
    assert SparsePoly(f.field, f.num_vars, dict(f.terms)) == f
    assert all(type(k) is tuple for k in f.terms)


@st.composite
def programs(draw, primes, max_vars=4, max_layers=10, max_width=3, max_degree=3):
    """Random oblivious programs, mostly reading layers with some constant,
    identity-padding and all-zero ones; ``num_vars`` may be 0."""
    field = PrimeField(draw(st.sampled_from(primes)))
    n = draw(st.integers(0, max_vars))
    num_layers = draw(st.integers(0, max_layers))
    kinds = ("read",) * 6 + ("constant", "padding", "zero") if n else ("constant", "zero")
    layers = []
    w_in = 1
    for idx in range(num_layers):
        last = idx == num_layers - 1
        kind = draw(st.sampled_from(kinds))
        if kind == "padding" and (w_in == 1 or not last):
            var = draw(st.integers(0, n - 1))
            layers.append(UniMatrix.identity(field, w_in, var=var, padding=True))
            continue
        var = None if kind == "constant" or n == 0 else draw(st.integers(0, n - 1))
        w_out = 1 if last else draw(st.integers(1, max_width))
        size = 1 if var is None else max_degree + 1
        coeffs = st.lists(st.integers(1, field.p - 1) | st.just(0), min_size=1, max_size=size)
        if kind == "zero":
            coeffs = st.just(())
        rows = tuple(tuple(tuple(draw(coeffs)) for _ in range(w_out))
                     for _ in range(w_in))
        layers.append(UniMatrix(field, var, rows))
        w_in = w_out
    if w_in != 1:
        layers.append(UniMatrix(field, None, tuple(((1,),) for _ in range(w_in))))
    return ObliviousAbp(field, n, tuple(layers))


@st.composite
def poly_pairs(draw, num_vars=3, max_degree=3):
    field = PrimeField(draw(st.sampled_from((2, 101))))
    exps = st.tuples(*[st.integers(0, max_degree)] * num_vars)
    coeffs = st.integers(-2 * field.p, 2 * field.p)
    f, g = (SparsePoly(field, num_vars, draw(st.dictionaries(exps, coeffs, max_size=6)))
            for _ in range(2))
    return f, g


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=6)
DOCUMENT_KEYS = st.sampled_from(["field_prime", "num_vars", "layers", "var",
                                 "matrix", "padding"]) | st.text(max_size=3)


def _paths(value, path=()):
    """Every position in a JSON tree, as the key path from the root."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def program_documents(draw):
    """Text of a valid program document after up to three random edits
    (replace, delete or insert a value anywhere), sometimes truncated."""
    doc = to_json_obj(draw(programs(primes=(2, 7, 101), max_vars=3, max_layers=4)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "replace":
            parent[key] = draw(JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(DOCUMENT_KEYS)] = draw(JSON_VALUES)
        else:
            parent.insert(key, draw(JSON_VALUES))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


class TestProgramJsonFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(program_documents())
    def test_round_trip_or_value_error(self, text):
        try:
            program = parse_text(text)
        except ValueError:
            return
        canonical = to_canonical_text(program)
        again = parse_text(canonical)
        assert again == program
        assert to_canonical_text(again) == canonical


class TestExpandMatchesReference:
    @PROPERTY_SETTINGS
    @given(programs(primes=(2, 101)))
    def test_equal_to_reference(self, abp):
        fast = abp.expand()
        assert fast == reference_expand(abp)
        assert_canonical(fast)

    def test_no_layers_is_one(self):
        field = PrimeField(2)
        for n in (0, 2):
            one = ObliviousAbp(field, n, ()).expand()
            assert one == SparsePoly.const(field, n, 1)


class TestTrustedResultsAreCanonical:
    @PROPERTY_SETTINGS
    @given(poly_pairs(), st.integers(-300, 300),
           st.dictionaries(st.integers(0, 2), st.integers(-300, 300), max_size=3))
    def test_arithmetic(self, pair, c, sub):
        f, g = pair
        for h in (f + g, f - g, -f, f * g, f.scale(c), f.substitute(sub)):
            assert_canonical(h)
        raw = {}
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                raw[e] = raw.get(e, 0) + c1 * c2
        assert f * g == SparsePoly(f.field, f.num_vars, raw)


class TestGridPitAgainstOracle:
    @PROPERTY_SETTINGS
    @given(programs(primes=(2, 3, 5, 7), max_degree=2))
    def test_exact_or_refused(self, abp):
        oracle = abp.expand()
        try:
            verdict = read_k_pit(abp, generator="grid")
        except ValueError as exc:
            assert "wraps mod p" in str(exc)
            assert max(abp.individual_degrees()) >= abp.field.p
            return
        assert verdict.is_zero == oracle.is_zero
        if not verdict.is_zero:
            assert abp.evaluate(verdict.witness) != 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_function_zero_polynomial_refused(p):
    """x^p - x vanishes on all of F_p but is a nonzero polynomial."""
    field = PrimeField(p)
    coeffs = [0] * (p + 1)
    coeffs[1], coeffs[p] = p - 1, 1
    abp = ObliviousAbp(field, 1, (UniMatrix(field, 0, ((tuple(coeffs),),)),))
    assert not abp.expand().is_zero
    with pytest.raises(ValueError):
        read_k_pit(abp)
