import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incseq.combinatorics import Embedding, compositions, increasing_sequences
from incseq.field import field_from_string
from incseq.groebner import _block_factors, _expand_all, full_basis
from incseq.interpolation import get_interpolator
from incseq.poly import (
    DEGLEX,
    LEX,
    Polynomial,
    format_polynomial,
    mono_mul,
    monomials_up_to_degree,
    parse_order,
    parse_polynomial,
    reduce_by_basis,
)

from dense_reference import mono_eval

Q = field_from_string("rational")


def _vars(field, n):
    return [Polynomial.variable(field, n, i) for i in range(n)]


def test_ring_arithmetic():
    x1, _ = _vars(Q, 2)
    one = Polynomial.one(Q, 2)
    assert (x1 + one) * (x1 - one) == x1 * x1 - one
    f = x1 * x1 - one.scale(3)
    assert (f + (-f)).is_zero


def test_char2_frobenius():
    gf2 = field_from_string("gf:2")
    x1, x2 = _vars(gf2, 2)
    assert (x1 + x2) * (x1 + x2) == x1 * x1 + x2 * x2


def test_mismatched_operands_rejected():
    gf2 = field_from_string("gf:2")
    with pytest.raises(ValueError):
        _ = _vars(Q, 2)[0] + _vars(Q, 3)[0]
    with pytest.raises(ValueError):
        _ = _vars(Q, 2)[0] + _vars(gf2, 2)[0]


def test_eval_simple():
    x1, x2 = _vars(Q, 2)
    assert (x1 * x2).evaluate([Q.element(2), Q.element(3)]) == Q.element(6)
    with pytest.raises(ValueError):
        (x1 * x2).evaluate([Q.element(2)])
    # every coordinate must be an element of the polynomial's field, used or not
    gf5 = field_from_string("gf:5")
    for point in ([Q.element(2), gf5.element(3)], [Q.element(2), 3], [gf5.element(1), Q.element(3)]):
        with pytest.raises(ValueError):
            (x1 * x2).evaluate(point)
        with pytest.raises(ValueError):
            x1.evaluate(point)


def test_eval_worked_product_on_grid():
    # (x5-5)(x4-x3)(x4-x3-1)(x2-x1): nonzero exactly at (1,2,2,4,4)
    x = _vars(Q, 5)
    c = lambda v: Polynomial.constant(Q, 5, v)
    product = (x[4] - c(5)) * (x[3] - x[2]) * (x[3] - x[2] - c(1)) * (x[1] - x[0])
    emb = Embedding.grid(Q, 5, 0)
    special = (1, 2, 2, 4, 4)
    assert product.evaluate(emb.apply(special)) == Q.element(-2)
    for seq in increasing_sequences(5, 5):
        value = product.evaluate(emb.apply(seq))
        assert value.is_zero == (seq != special)


def test_leading_monomials():
    x1, x2 = _vars(Q, 2)
    f = x1 + x2 * x2
    assert f.leading_monomial(LEX) == (1, 0)
    assert f.leading_monomial(DEGLEX) == (0, 2)
    with pytest.raises(ValueError):
        Polynomial.zero(Q, 2).leading_monomial(LEX)


def test_block_product_leading_monomial_is_size_vector():
    emb = Embedding.grid(Q, 3, -1)
    for n in (1, 2, 3):
        for sizes in compositions(3, n):
            f = _expand_all(Q, n, [_block_factors(sizes, emb)])[0]
            for order in (LEX, DEGLEX):
                assert f.leading_monomial(order) == sizes


def test_term_order_axioms_random():
    rng = random.Random(1)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        u, v, w = (tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(3))
        for order in (LEX, DEGLEX):
            ku, kv = order.key(u), order.key(v)
            assert (ku < kv) + (kv < ku) + (ku == kv) == 1
            assert order.key((0,) * n) <= ku
            if ku < kv:
                assert order.key(mono_mul(u, w)) < order.key(mono_mul(v, w))


def test_order_parse():
    # the module objects themselves: orders compare by identity
    assert parse_order("lex") is LEX and parse_order(" deglex ") is DEGLEX
    for name in ("grevlex", "Lex", ""):
        with pytest.raises(ValueError, match="unknown term order"):
            parse_order(name)


def test_reduce_power_lands_in_standard_monomials():
    emb = Embedding.grid(Q, 3, -1)
    basis = full_basis(2, 3, emb).polynomials
    x1, _ = _vars(Q, 2)
    cube = x1 * x1 * x1
    r = reduce_by_basis(cube, basis, DEGLEX)
    assert not r.is_zero and r.degree() <= 2
    # remainder agrees with x1^3 as a function on the points
    for seq in increasing_sequences(2, 3):
        p = emb.apply(seq)
        assert r.evaluate(p) == cube.evaluate(p)


def test_reduce_normal_form_fixed():
    emb = Embedding.grid(Q, 3, -1)
    basis = full_basis(2, 3, emb).polynomials
    x1, x2 = _vars(Q, 2)
    f = x1 + x2.scale(5) + Polynomial.one(Q, 2)
    assert reduce_by_basis(f, basis, DEGLEX) == f


def test_reduce_matches_interpolation_oracle():
    # GF(3), n=2, q=2: the normal form of x1*x2 is the unique
    # standard-monomial combination with the same values on the points
    gf3 = field_from_string("gf:3")
    emb = Embedding.grid(gf3, 2, -1)
    basis = full_basis(2, 2, emb).polynomials
    x1, x2 = _vars(gf3, 2)
    r = reduce_by_basis(x1 * x2, basis, DEGLEX)
    assert r == x1
    assert get_interpolator(2, 2, emb).interpolate(
        {s: (x1 * x2).evaluate(emb.apply(s)) for s in increasing_sequences(2, 2)}) == r


def _random_poly(rng, field, n, maxdeg):
    f = Polynomial.zero(field, n)
    for _ in range(rng.randint(0, 6)):
        mono = tuple(rng.randint(0, maxdeg) for _ in range(n))
        f = f + Polynomial(field, n, {mono: field.element(rng.randint(-9, 9))})
    return f


@pytest.mark.parametrize("spec", ["gf:3", "rational"])
def test_reduction_idempotent_and_linear(spec):
    field = field_from_string(spec)
    rng = random.Random(5)
    emb = Embedding.grid(field, 3, -1)
    basis = full_basis(2, 3, emb).polynomials
    for _ in range(100):
        f = _random_poly(rng, field, 2, 4)
        g = _random_poly(rng, field, 2, 4)
        rf, rg = reduce_by_basis(f, basis, DEGLEX), reduce_by_basis(g, basis, DEGLEX)
        assert reduce_by_basis(rf, basis, DEGLEX) == rf
        a, b = field.element(rng.randint(-4, 4)), field.element(rng.randint(-4, 4))
        assert reduce_by_basis(f.scale(a) + g.scale(b), basis, DEGLEX) == rf.scale(a) + rg.scale(b)


@pytest.mark.parametrize("spec", ["gf:5", "gf:2^2", "rational"])
def test_eval_is_ring_homomorphism(spec):
    field = field_from_string(spec)
    rng = random.Random(3)
    els = field.elements() if field.size else [field.element(v) for v in range(-5, 6)]
    for _ in range(100):
        f = _random_poly(rng, field, 2, 3)
        g = _random_poly(rng, field, 2, 3)
        p = (rng.choice(els), rng.choice(els))
        assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)
        assert (f + g).evaluate(p) == f.evaluate(p) + g.evaluate(p)


def test_format_examples():
    x1, x2, x3 = _vars(Q, 3)
    f = x1 * x1 * x2 - x3.scale(2) + Polynomial.one(Q, 3)
    assert format_polynomial(f, DEGLEX) == "x1^2*x2 - 2*x3 + 1"
    assert format_polynomial(Polynomial.zero(Q, 3)) == "0"
    assert format_polynomial(-x1) == "-x1"


@pytest.mark.parametrize("spec", ["gf:3", "gf:2^2", "rational"])
def test_format_parse_roundtrip(spec):
    field = field_from_string(spec)
    rng = random.Random(11)
    for _ in range(60):
        f = _random_poly(rng, field, 3, 3)
        for order in (LEX, DEGLEX):
            assert parse_polynomial(format_polynomial(f, order), field, 3) == f


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x0 + 1", Q, 2)
    with pytest.raises(ValueError):
        parse_polynomial("x3", Q, 2)
    with pytest.raises(ValueError):
        parse_polynomial("2*3*x1", Q, 2)


def test_monomial_enumeration_sorted():
    monos = monomials_up_to_degree(2, 2)
    assert len(monos) == 6
    ordered = sorted(monos, key=DEGLEX.key)
    assert ordered[0] == (0, 0) and sum(ordered[-1]) == 2


def test_monomial_enumeration_lex_and_wide():
    # lex order, the first exponent slowest, and no recursion per variable
    assert monomials_up_to_degree(2, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert monomials_up_to_degree(3, 0) == [(0, 0, 0)]
    wide = monomials_up_to_degree(5000, 1)
    assert len(wide) == 5001 and wide[0] == (0,) * 5000 and wide[1] == (0,) * 4999 + (1,)


def test_parse_dense_polynomial_and_cancellations():
    field = field_from_string("gf:101")
    rng = random.Random(5)
    dense = Polynomial(field, 4, {m: field.element(rng.randrange(1, 101)) for m in monomials_up_to_degree(4, 8)})
    assert len(dense.terms) == 495
    for order in (LEX, DEGLEX):
        assert parse_polynomial(format_polynomial(dense, order), field, 4) == dense
    x1, x2 = _vars(field, 2)
    assert parse_polynomial("x1 - x1", field, 2).is_zero
    assert parse_polynomial("0*x1 + x2", field, 2) == x2
    assert parse_polynomial("x1 + x2 - x1 + x1", field, 2) == x1 + x2
    assert parse_polynomial("50*x1*x2 + 51*x2*x1", field, 2).is_zero


def test_coefficients_must_belong_to_the_field():
    gf3, gf5 = field_from_string("gf:3"), field_from_string("gf:5")
    with pytest.raises(ValueError, match="GF\\(5\\)"):
        Polynomial(gf3, 1, {(1,): gf5.one})
    with pytest.raises(ValueError):
        Polynomial(Q, 2, {(0, 0): Q.one, (1, 0): gf3.one})
    # an equal field built separately is the same field
    f = Polynomial(gf3, 1, {(1,): field_from_string("gf:3").one, (0,): gf3.one})
    assert format_polynomial(f) == "x1 + 1"


# -- evaluation over Q against a term-by-term Fraction sum --------------------

RATIONALS = st.one_of(st.sampled_from([Fraction(0), Fraction(-3, 4), Fraction(1, 3)]),
                      st.fractions(min_value=-20, max_value=20, max_denominator=12))


@st.composite
def rational_cases(draw):
    """(polynomial, constant, point) over Q: up to 4 variables, exponents up
    to 8, non-integral coefficients and coordinates, zero coordinates."""
    n = draw(st.integers(1, 4))
    monos = st.tuples(*[st.integers(0, 8)] * n)
    terms = draw(st.dictionaries(monos, RATIONALS, min_size=2, max_size=12))
    point = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    f = Polynomial(Q, n, {m: Q.element(c) for m, c in terms.items()})
    return f, Polynomial.constant(Q, n, draw(RATIONALS)), [Q.element(x) for x in point]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rational_cases())
def test_rational_evaluate_matches_fraction_sum(case):
    f, constant, point = case
    for g in (f, constant, Polynomial.zero(Q, f.n)):
        want = sum((c.value * mono_eval(m, point).value for m, c in g.terms.items()), Fraction(0))
        got = g.evaluate(point)
        assert got.field is Q and type(got.value) is (int if want.denominator == 1 else Fraction)
        assert got.value == want
    # the width and field checks come before the integer path
    gf5 = field_from_string("gf:5")
    with pytest.raises(ValueError):
        f.evaluate(point + [Q.zero])
    with pytest.raises(ValueError):
        f.evaluate(point[:-1] + [gf5.one])
    with pytest.raises(ValueError):
        f.evaluate(point[:-1] + [1])


# -- evaluation from a kept plan, against a term-by-term reference ------------

PLAN_FIELDS = ["rational", "gf:7", "gf:101", "gf:2^3", "gf:3^2"]


def _values(field):
    if field.char == 0:
        return RATIONALS.map(field.element)
    return st.integers(0, field.size - 1).map(field.elements().__getitem__)


def _reference_value(f, point):
    """sum of c * x_1^e_1 * ... * x_n^e_n in element arithmetic, one
    multiplication per unit of exponent."""
    total = f.field.zero
    for m, c in f.terms.items():
        for x, e in zip(point, m):
            for _ in range(e):
                c = c * x
        total = total + c
    return total


def _assert_evaluates(f, points):
    for point in points:
        got, want = f.evaluate(point), _reference_value(f, point)
        assert got.field is f.field and got == want
        assert type(got.value) is type(want.value)  # the canonical payload: int when integral over Q


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(PLAN_FIELDS), st.integers(1, 8), st.data())
def test_planned_evaluate_matches_reference(spec, n, data):
    field = field_from_string(spec)
    values = _values(field)
    # variables outside `used` occur in no term
    used = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))
    monos = st.tuples(*[st.integers(0, 6) if j in used else st.just(0) for j in range(n)])
    terms = data.draw(st.dictionaries(monos, values, min_size=1, max_size=10))
    f = Polynomial(field, n, terms)
    # successive points, one with a zero coordinate, a zero point and (over
    # Q) one of distinct fractions and a zero, so D > 1
    points = data.draw(st.lists(st.tuples(*[values] * n), min_size=5, max_size=7))
    z = data.draw(st.integers(0, n - 1))
    points.append(points[0][:z] + (field.zero,) + points[0][z + 1:])
    points.append((field.zero,) * n)
    if field.char == 0:
        points.append(tuple(field.element(Fraction(-(j + 1), j + 2)) for j in range(n)))
        points.append((field.zero,) + tuple(field.element(Fraction(j + 3, 2 * j + 3)) for j in range(1, n)))
    # a monomial alone, whose prefix x1^5 is not a term
    nonzero = values.filter(lambda x: not x.is_zero)
    lone = Polynomial(field, max(n, 3), {(5, 0, 2) + (0,) * (n - 3): data.draw(nonzero)})
    _assert_evaluates(lone, [(p * 3)[:max(n, 3)] for p in points])
    assert lone._plan[:2] == ([(0, 5, [(0, 5)]), (2, 2, [(1, 2)])], [2])  # x1^5, then x1^5 * x3^2
    _assert_evaluates(f, points)
    assert f._plan is not None or f.is_zero
    if not f.is_zero:
        # one prefix entry at most per nonzero exponent of a term, and a
        # step only for a variable that occurs in some term
        steps = f._plan[0]
        assert sum(len(entries) for _, _, entries in steps) <= sum(e > 0 for m in f.terms for e in m)
        assert [j for j, _, _ in steps] == [j for j in range(n) if any(m[j] for m in f.terms)]
    # derived polynomials start without a plan, though f has one
    c = data.draw(nonzero)
    derived = [-f, f.scale(c), f.homogeneous_component(max(f.degree(), 0)), f.homogeneous_component(0),
               Polynomial.zero(field, n), Polynomial.constant(field, n, c)]
    for g in derived:
        assert g._plan is None
        _assert_evaluates(g, points)
    _assert_evaluates(f, points[:2])  # f's plan is unchanged by its derived polynomials
    # the width and field checks run on every call, plan or not
    foreign = field_from_string("gf:5")
    for g in [f] + derived:
        with pytest.raises(ValueError, match="point width"):
            g.evaluate(points[0] + (field.zero,))
        with pytest.raises(ValueError, match="is not an element of"):
            g.evaluate(points[0][:-1] + (foreign.one,))
