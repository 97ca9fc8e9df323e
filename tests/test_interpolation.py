import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from incseq.combinatorics import Embedding, difference_vector, increasing_sequences
from incseq.field import field_from_string
from incseq.groebner import _expand_all, full_basis
from incseq.interpolation import Interpolator, get_interpolator, indicator, interpolate
from incseq.poly import DEGLEX, Polynomial, format_polynomial, monomials_up_to_degree, reduce_by_basis

from dense_reference import mono_eval, row_echelon

Q = field_from_string("rational")


def _vars(field, n):
    return [Polynomial.variable(field, n, i) for i in range(n)]


def test_univariate_lagrange():
    emb = Embedding.grid(Q, 3, 0)  # images 1, 2, 3
    ip = indicator((2,), 1, 3, emb)
    (x,) = _vars(Q, 1)
    c = lambda v: Polynomial.constant(Q, 1, v)
    assert ip.expanded == ((x - c(1)) * (x - c(3))).scale(Fraction(-1, 1))
    assert ip.factored.expand() == ip.expanded
    assert {str(f) for f in ip.factored.factors} == {"x1 - 1", "x1 - 3"}


def test_worked_five_variable_factorization():
    emb = Embedding.grid(Q, 5, 0)
    ip = indicator((1, 2, 2, 4, 4), 5, 5, emb)
    x = _vars(Q, 5)
    c = lambda v: Polynomial.constant(Q, 5, v)
    expected = [x[4] - c(5), x[3] - x[2], x[3] - x[2] - c(1), x[1] - x[0]]
    got = list(ip.factored.factors)
    assert len(got) == 4
    for f in expected:
        assert f in got
    # scalar is the inverse of the product's value at the point
    product = Polynomial.one(Q, 5)
    for f in got:
        product = product * f
    assert ip.factored.scalar == product.evaluate(ip.point).inverse()
    assert ip.factored.expand() == ip.expanded
    assert ip.expanded.degree() == 4


@pytest.mark.parametrize("n,q", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_delta_property_and_degree(n, q):
    emb = Embedding.grid(Q, q, 0)
    interp = get_interpolator(n, q, emb)
    for s in interp.sequences:
        ip = interp.indicator(s)
        assert ip.expanded.degree() == q - 1
        assert ip.factored is not None and ip.factored.expand() == ip.expanded
        assert len(ip.factored.factors) == q - 1
        assert all(f.degree() == 1 for f in ip.factored.factors)
        for t in interp.sequences:
            value = ip.expanded.evaluate(emb.apply(t))
            assert value == (Q.one if s == t else Q.zero)


def test_delta_property_finite_field_grid():
    gf7 = field_from_string("gf:7")
    emb = Embedding.grid(gf7, 3, -1)
    interp = Interpolator(2, 3, emb)
    for s in interp.sequences:
        ip = interp.indicator(s)
        assert ip.factored is not None and ip.factored.expand() == ip.expanded
        assert ip.expanded.degree() == 2
        for t in interp.sequences:
            value = ip.expanded.evaluate(emb.apply(t))
            assert value == (gf7.one if s == t else gf7.zero)


def test_non_grid_embedding_has_no_factored_form():
    emb = Embedding.from_elements(Q, [0, 2, 5])
    interp = Interpolator(2, 3, emb)
    for s in interp.sequences:
        ip = interp.indicator(s)
        assert ip.factored is None
        assert ip.expanded.degree() == 2
        for t in interp.sequences:
            value = ip.expanded.evaluate(emb.apply(t))
            assert value == (Q.one if s == t else Q.zero)


def test_expanded_supported_on_standard_monomials():
    emb = Embedding.grid(Q, 3, 0)
    interp = get_interpolator(2, 3, emb)
    for s in interp.sequences:
        assert all(sum(m) <= 2 for m in interp.indicator(s).expanded.terms)


def test_interpolate_constant_and_indicators():
    emb = Embedding.grid(Q, 3, 0)
    interp = get_interpolator(2, 3, emb)
    assert interp.interpolate({s: 1 for s in interp.sequences}) == Polynomial.one(Q, 2)
    target = (1, 2)
    table = {s: (1 if s == target else 0) for s in interp.sequences}
    assert interp.interpolate(table) == interp.indicator(target).expanded


def test_interpolate_coordinate_function():
    emb = Embedding.grid(Q, 3, -1)
    seqs = increasing_sequences(2, 3)
    values = {s: emb.images[s[0] - 1] for s in seqs}
    result = interpolate(values, 2, 3, emb)
    x1 = Polynomial.variable(Q, 2, 0)
    gb = full_basis(2, 3, emb)
    assert reduce_by_basis(result - x1, gb.polynomials, DEGLEX).is_zero
    for s in seqs:
        assert result.evaluate(emb.apply(s)) == values[s]


def test_interpolate_missing_point_rejected():
    emb = Embedding.grid(Q, 3, 0)
    with pytest.raises(ValueError):
        interpolate({(1, 1): 1}, 2, 3, emb)


@pytest.mark.parametrize("key", [(2, 1), (1, 4), (0, 1), (1, 1, 1), ()])
def test_interpolate_foreign_key_rejected(key):
    """A key that is not a sequence is an error, not a dropped row."""
    emb = Embedding.grid(Q, 3, 0)
    table = {s: 1 for s in increasing_sequences(2, 3)}
    table[key] = 2
    with pytest.raises(ValueError, match="not a nondecreasing sequence"):
        interpolate(table, 2, 3, emb)


def test_interpolate_repeated_key_rejected():
    """Two keys naming one sequence (here a tuple and a range) are an
    error, not last-one-wins."""
    emb = Embedding.grid(Q, 3, 0)
    table = {s: 1 for s in increasing_sequences(2, 3)}
    table[range(1, 3)] = 2
    with pytest.raises(ValueError, match=r"repeats sequence \(1, 2\)"):
        interpolate(table, 2, 3, emb)


def test_invalid_sequence_rejected():
    emb = Embedding.grid(Q, 3, 0)
    with pytest.raises(ValueError):
        indicator((2, 1), 2, 3, emb)


def test_n8_q8_rational_indicator():
    """N = 6435 over Q runs to completion (a check of the result, not of
    its time)."""
    emb = Embedding.grid(Q, 8, -1)
    interp = Interpolator(8, 8, emb)
    seq = (1, 2, 2, 3, 5, 5, 7, 8)
    ip = interp.indicator(seq)
    assert ip.expanded.degree() == 7
    assert ip.factored.expand() == ip.expanded
    for t in [seq] + interp.sequences[::97]:
        assert ip.expanded.evaluate(emb.apply(t)) == (Q.one if t == seq else Q.zero)


def test_q1_edge():
    emb = Embedding.grid(Q, 1, 0)
    ip = indicator((1, 1), 2, 1, emb)
    assert ip.expanded == Polynomial.one(Q, 2)
    assert ip.expanded.degree() == 0
    assert ip.factored is not None and ip.factored.expand() == ip.expanded
    assert len(ip.factored.factors) == 0


# -- differential: the triangular solve against a dense solve -----------------

DIFF = settings(derandomize=True, database=None, deadline=None, max_examples=8,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
DIFF_FIELDS = ["gf:7", "gf:2^3", "gf:3^2", "rational"]
MAX_N = 56  # sequences per context


def _values(field):
    if field.size is None:
        return st.fractions(min_value=-6, max_value=6, max_denominator=4).map(field.element)
    return st.sampled_from(field.elements())


@st.composite
def contexts(draw, spec, kind):
    """(n, q, embedding) with at most MAX_N sequences; a grid embedding
    at a random offset or random distinct images."""
    field = field_from_string(spec)
    top = field.size or 8
    if kind == "grid" and field.char:
        top = field.char  # j -> a + j repeats after char steps
    q = draw(st.integers(2, min(top, 8)))
    n = draw(st.integers(1, 6).filter(lambda n: math.comb(n + q - 1, n) <= MAX_N))
    if kind == "grid":
        return n, q, Embedding.grid(field, q, draw(_values(field)))
    images = draw(st.lists(_values(field), min_size=q, max_size=q, unique=True))
    return n, q, Embedding.from_elements(field, images)


def dense_inverse(interp):
    """The monomials of degree <= q-1 and the inverse of their evaluation
    matrix, by reducing [M | I] to row echelon form."""
    field = interp.field
    columns = monomials_up_to_degree(interp.n, interp.q - 1)
    size = len(columns)
    rows = [[mono_eval(m, p) for m in columns] + [field.one if j == i else field.zero for j in range(size)]
            for i, p in enumerate(map(interp.embedding.apply, interp.sequences))]
    echelon, pivots = row_echelon(rows, field)
    assert pivots[:size] == list(range(size))
    return columns, [row[size:] for row in echelon]


def _assert_same(got, want):
    assert got == want
    assert format_polynomial(got) == format_polynomial(want)


@pytest.mark.parametrize("kind", ["grid", "list"])
@pytest.mark.parametrize("spec", DIFF_FIELDS)
@DIFF
@given(st.data())
def test_triangular_solve_matches_dense_solve(spec, kind, data):
    n, q, emb = data.draw(contexts(spec, kind))
    field = emb.field
    interp = Interpolator(n, q, emb)
    columns, inverse = dense_inverse(interp)
    for j, s in enumerate(interp.sequences):
        want = Polynomial(field, n, {m: inverse[k][j] for k, m in enumerate(columns)})
        _assert_same(interp.indicator(s).expanded, want)
    size = len(columns)
    dense = data.draw(st.lists(_values(field), min_size=size, max_size=size))
    # sparse tables, so that the sweeps skip zero groups: a few nonzero
    # entries, and one slab h_j >= t with runs of zeros along coordinate j
    support = data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=3))
    spikes = [data.draw(_values(field)) if i in support else field.zero for i in range(size)]
    j, t = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, q))
    slab = [v if s[j] >= t else field.zero for s, v in zip(interp.sequences, dense)]
    for values in (dense, spikes, slab):
        want = Polynomial(field, n, {m: sum((a * v for a, v in zip(inverse[k], values)), field.zero)
                                     for k, m in enumerate(columns)})
        _assert_same(interp.interpolate(dict(zip(interp.sequences, values))), want)


@pytest.mark.parametrize("kind", ["grid", "list"])
@pytest.mark.parametrize("spec", DIFF_FIELDS)
@DIFF
@given(st.data())
def test_interval_products_are_triangular(spec, kind, data):
    """P_g(h) != 0 exactly when g <= h componentwise."""
    n, q, emb = data.draw(contexts(spec, kind))
    seqs = increasing_sequences(n, q)
    for g in seqs:
        p = _expand_all(emb, n, 0, [difference_vector(g)])[0]
        for h in seqs:
            assert p.evaluate(emb.apply(h)).is_zero != all(a <= b for a, b in zip(g, h))
