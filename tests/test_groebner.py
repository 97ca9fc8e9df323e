import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from incseq.combinatorics import (
    Embedding,
    all_downsets,
    difference_vector,
    increasing_sequences,
    parse_embedding,
)
from incseq.field import field_from_string, smallest_prime_geq
from incseq.groebner import (
    downset_basis,
    expanded_terms,
    full_basis,
    hilbert_value,
    is_reduced_basis,
    nonvanishing_point,
    strict_basis,
)
from incseq.oracle import standard_monomials, vanishes_on
from incseq.poly import (
    DEGLEX,
    LEX,
    Polynomial,
    mono_divides,
    monomials_up_to_degree,
    parse_order,
    reduce_by_basis,
)

Q = field_from_string("rational")
GF3 = field_from_string("gf:3")


def _vars(field, n):
    return [Polynomial.variable(field, n, i) for i in range(n)]


def test_univariate_full_basis():
    emb = Embedding.grid(GF3, 3, -1)
    gb = full_basis(1, 3, emb)
    (x,) = _vars(GF3, 1)
    assert list(gb.polynomials) == [x * x * x - x]
    assert gb.standard_monomials == {(0,), (1,), (2,)}


def test_char2_full_basis_frozen():
    gf2 = field_from_string("gf:2")
    emb = Embedding.grid(gf2, 2, -1)
    gb = full_basis(2, 2, emb)
    x1, x2 = _vars(gf2, 2)
    assert set(map(str, gb.polynomials)) == {"x2^2 + x2", "x1*x2 + x1", "x1^2 + x1"}
    assert all(vanishes_on(p, gb.points) for p in gb.polynomials)
    assert len(gb.points) == 3


def test_full_basis_counts_and_sm():
    emb = Embedding.grid(Q, 3, -1)
    gb = full_basis(2, 3, emb)
    assert len(gb.polynomials) == 4
    assert len(gb.standard_monomials) == 6 == len(gb.points)
    assert gb.standard_monomials == frozenset(monomials_up_to_degree(2, 2))


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("q", range(1, 5))
def test_full_basis_verified(n, q):
    for spec in (f"gf:{smallest_prime_geq(q)}", "rational"):
        field = field_from_string(spec)
        emb = Embedding.grid(field, q, -1)
        gb = full_basis(n, q, emb)
        assert len(gb.points) == math.comb(n + q - 1, q - 1)
        for p in gb.polynomials:
            assert vanishes_on(p, gb.points)
            assert p.degree() == q
        assert gb.is_reduced()
        assert gb.standard_monomials == frozenset(monomials_up_to_degree(n, q - 1))


def test_order_invariance():
    emb = Embedding.grid(Q, 3, -1)
    for ctor in (full_basis, strict_basis):
        lex = ctor(2, 3, emb, LEX)
        deglex = ctor(2, 3, emb, DEGLEX)
        assert [p.terms for p in lex.polynomials] == [p.terms for p in deglex.polynomials]
        assert lex.standard_monomials == deglex.standard_monomials
        assert lex.is_reduced() and deglex.is_reduced()


def test_strict_basis_frozen():
    emb = Embedding.grid(Q, 3, -1)
    gb = strict_basis(2, 3, emb)
    x1, x2 = _vars(Q, 2)
    c = lambda v: Polynomial.constant(Q, 2, v)
    assert list(gb.polynomials) == [(x2 - c(1)) * (x2 - c(2)), x1 * (x2 - c(2)), x1 * (x1 - c(1))]
    assert len(gb.points) == 3
    for p in gb.polynomials:
        assert vanishes_on(p, gb.points)


def test_strict_basis_edges():
    emb = Embedding.grid(Q, 3, -1)
    assert strict_basis(3, 3, emb).standard_monomials == {(0, 0, 0)}
    emb4 = Embedding.grid(Q, 4, -1)
    gb = strict_basis(2, 4, emb4)
    assert len(gb.standard_monomials) == math.comb(4, 2) == 6
    assert gb.standard_monomials == frozenset(monomials_up_to_degree(2, 2))
    with pytest.raises(ValueError):
        strict_basis(4, 3, emb)


@pytest.mark.parametrize("n,q", [(n, q) for n in range(1, 5) for q in range(n, 5)])
def test_strict_basis_verified(n, q):
    emb = Embedding.grid(Q, q, -1)
    gb = strict_basis(n, q, emb)
    assert len(gb.points) == math.comb(q, n)
    for p in gb.polynomials:
        assert vanishes_on(p, gb.points)
    assert gb.is_reduced()
    assert standard_monomials(gb.points, DEGLEX) == gb.standard_monomials


def test_downset_worked_example():
    emb = Embedding.grid(Q, 3, -1)
    gb = downset_basis(2, 3, [(1, 1), (1, 2), (2, 2)], emb)
    assert gb.standard_monomials == {(0, 0), (0, 1), (1, 0)}
    assert standard_monomials(gb.points, DEGLEX) == gb.standard_monomials
    for p in gb.polynomials:
        assert vanishes_on(p, gb.points)


def test_downset_entire_set():
    emb = Embedding.grid(Q, 3, -1)
    full = full_basis(2, 3, emb)
    gb = downset_basis(2, 3, increasing_sequences(2, 3), emb)
    assert len(gb.polynomials) == len(full.polynomials)
    assert gb.standard_monomials == full.standard_monomials


def test_downset_single_point():
    emb = Embedding.grid(Q, 3, -1)
    gb = downset_basis(2, 3, [(1, 1)], emb)
    assert gb.standard_monomials == {(0, 0)}
    assert {(1, 0), (0, 1)} <= {p.leading_monomial(DEGLEX) for p in gb.polynomials}
    # T-members make it non-reduced; the minimized variant is
    assert not gb.is_reduced()
    minimized = downset_basis(2, 3, [(1, 1)], emb, minimize=True)
    assert {p.leading_monomial(DEGLEX) for p in minimized.polynomials} == {(1, 0), (0, 1)}
    assert is_reduced_basis(minimized.polynomials, DEGLEX)


def test_downset_all_of_I23():
    emb = Embedding.grid(Q, 3, -1)
    for downset in all_downsets(2, 3):
        gb = downset_basis(2, 3, downset, emb)
        assert gb.standard_monomials == {difference_vector(g) for g in downset}
        assert standard_monomials(gb.points, DEGLEX) == gb.standard_monomials
        for p in gb.polynomials:
            assert vanishes_on(p, gb.points)
        # every monomial outside sm is divisible by some leading monomial
        lms = {p.leading_monomial(DEGLEX) for p in gb.polynomials}
        for m in monomials_up_to_degree(2, 3):
            if m not in gb.standard_monomials:
                assert any(all(a <= b for a, b in zip(lm, m)) for lm in lms)


def test_downset_rejections():
    emb = Embedding.grid(Q, 3, -1)
    with pytest.raises(ValueError):
        downset_basis(2, 3, [], emb)
    with pytest.raises(ValueError):
        downset_basis(2, 3, [(1, 2)], emb)


def test_hilbert_values():
    assert hilbert_value("full", 2, 3, 1) == (3, True)
    assert hilbert_value("full", 2, 3, 0) == (1, True)
    assert hilbert_value("strict", 2, 3, 0) == (1, True)
    assert hilbert_value("full", 3, 4, 3) == (math.comb(6, 3), True) == (20, True)
    # beyond the degree bound: the saturated count, not in closed form
    assert hilbert_value("full", 2, 3, 9) == (6, False)
    assert hilbert_value("strict", 2, 4, 5) == (math.comb(4, 2), False)
    with pytest.raises(ValueError):
        hilbert_value("strict", 4, 3, 0)
    with pytest.raises(ValueError):
        hilbert_value("full", 2, 3, -1)
    with pytest.raises(ValueError):
        hilbert_value("weak", 2, 3, 1)
    for kind in ("full", "strict"):
        for n, q in ((0, 3), (2, 0), (-3, 3)):
            with pytest.raises(ValueError, match="n and q must be >= 1"):
                hilbert_value(kind, n, q, 0)


def test_hilbert_matches_counting():
    for n in range(1, 6):
        for q in range(1, 6):
            emb = Embedding.grid(Q, q, -1)
            sm = full_basis(n, q, emb).standard_monomials
            for s in range(q):
                assert hilbert_value("full", n, q, s) == (sum(1 for m in sm if sum(m) <= s), True)


def test_nonvanishing_witness():
    emb = Embedding.grid(GF3, 3, -1)
    x1, x2 = _vars(GF3, 2)
    assert nonvanishing_point(x1 - x2, "full", 2, 3, emb) == (GF3.element(0), GF3.element(1))
    assert nonvanishing_point(Polynomial.zero(GF3, 2), "full", 2, 3, emb) is None
    f = x1 + x2 + Polynomial.one(GF3, 2)
    w = nonvanishing_point(f, "full", 2, 3, emb)
    assert w is not None and not f.evaluate(w).is_zero
    with pytest.raises(ValueError):
        nonvanishing_point(x1 * x1 * x1, "full", 2, 3, emb)
    # strict kind has the tighter bound q - n
    assert nonvanishing_point(x1 - x2, "strict", 2, 3, emb) is not None
    with pytest.raises(ValueError):
        nonvanishing_point(x1 * x2, "strict", 2, 3, emb)


def _random_poly(rng, field, n, maxdeg):
    f = Polynomial.zero(field, n)
    for _ in range(rng.randint(0, 5)):
        mono = tuple(rng.randint(0, maxdeg) for _ in range(n))
        f = f + Polynomial(field, n, {mono: field.element(rng.randint(-9, 9))})
    return f


def test_normal_form_preserves_function():
    rng = random.Random(9)
    for n in (1, 2, 3):
        for q in (1, 2, 3):
            emb = Embedding.grid(Q, q, -1)
            gb = full_basis(n, q, emb)
            for _ in range(10):
                f = _random_poly(rng, Q, n, q + 1)
                r = reduce_by_basis(f, gb.polynomials, DEGLEX)
                assert all(m in gb.standard_monomials for m in r.terms)
                for p in gb.points:
                    assert r.evaluate(p) == f.evaluate(p)


def test_embedding_width_checked():
    emb = Embedding.grid(Q, 4, -1)
    with pytest.raises(ValueError):
        full_basis(2, 3, emb)


def test_expanded_terms_counts_the_expansion():
    """Exact on images 1..q over Q, an upper bound when coefficients
    vanish: image 0, or images a and -a."""
    for n in range(1, 4):
        for q in range(1, 6):
            for shift, exact in ((0, True), (-1, False), (-(q + 1) // 2, False)):
                emb = Embedding.grid(Q, q, shift)
                seqs = increasing_sequences(n, q)
                cases = [("full", full_basis(n, q, emb), ())]
                if q >= n:
                    cases.append(("strict", strict_basis(n, q, emb), ()))
                for top in seqs:
                    below = [s for s in seqs if mono_divides(s, top)]
                    cases.append(("downset", downset_basis(n, q, below, emb), below))
                for kind, gb, downset in cases:
                    got = sum(len(p.terms) for p in gb.polynomials)
                    bound = expanded_terms(kind, n, q, downset)
                    assert got == bound if exact else got <= bound, (kind, n, q, shift, downset)
    with pytest.raises(ValueError):
        expanded_terms("full", 0, 3)
    assert expanded_terms("full", 12, 12) == math.comb(35, 23)


# -- closed-form downset and strict bases against the oracle ----------------

ORACLE_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                           suppress_health_check=[HealthCheck.too_slow])


def _draw_embedding(draw, field, q):
    """A list embedding of [q] at random distinct images."""
    values = (st.sampled_from(field.elements()) if field.size
              else st.fractions(min_value=-6, max_value=6, max_denominator=4).map(field.element))
    images = draw(st.lists(values, min_size=q, max_size=q, unique=True))
    return "list:" + ",".join(field.format_element(x) for x in images)


@st.composite
def downset_cases(draw):
    """(field, order, n, q, embedding, generators): the downset of I(n,q)
    below 1-3 generators, embedded at random distinct images."""
    spec = draw(st.sampled_from(["gf:7", "gf:2^3", "gf:3^2", "rational"]))
    field = field_from_string(spec)
    order = draw(st.sampled_from(["deglex", "lex"]))
    n, q = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    embedding = _draw_embedding(draw, field, q)
    generators = draw(st.lists(st.sampled_from(increasing_sequences(n, q)), min_size=1, max_size=3,
                               unique=True))
    return spec, order, n, q, embedding, generators


@ORACLE_SETTINGS
@given(downset_cases())
def test_downset_basis_matches_oracle(case):
    spec, order, n, q, embedding, generators = case
    field = field_from_string(spec)
    order = parse_order(order)
    downset = [s for s in increasing_sequences(n, q)
               if any(mono_divides(s, g) for g in generators)]  # s <= g componentwise
    gb = downset_basis(n, q, downset, parse_embedding(embedding, field, q), order)
    assert standard_monomials(gb.points, order) == gb.standard_monomials
    for p in gb.polynomials:
        assert vanishes_on(p, gb.points)
    lms = {p.leading_monomial(order) for p in gb.polynomials}
    for m in monomials_up_to_degree(n, q):
        assert (m in gb.standard_monomials) != any(mono_divides(lm, m) for lm in lms)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(downset_cases())
def test_minimized_downset_basis_matches_all_pairs_filter(case):
    spec, order, n, q, embedding, generators = case
    field = field_from_string(spec)
    emb, order = parse_embedding(embedding, field, q), parse_order(order)
    downset = [s for s in increasing_sequences(n, q) if any(mono_divides(s, g) for g in generators)]
    gb = downset_basis(n, q, downset, emb, order)
    blocks = [p.leading_monomial(order) for p in gb.polynomials]
    want = [fs for fs, b in zip(gb.factored, blocks) if not any(o != b and mono_divides(o, b) for o in blocks)]
    assert list(downset_basis(n, q, downset, emb, order, minimize=True).factored) == want


@st.composite
def strict_cases(draw):
    """(field, order, n, q, embedding): 1 <= n <= 4, n <= q <= 5, embedded
    at random distinct images."""
    spec = draw(st.sampled_from(["gf:7", "gf:2^3", "gf:3^2", "rational"]))
    field = field_from_string(spec)
    order = draw(st.sampled_from(["deglex", "lex"]))
    n = draw(st.integers(1, 4))
    q = draw(st.integers(n, 5))
    return spec, order, n, q, _draw_embedding(draw, field, q)


@ORACLE_SETTINGS
@given(strict_cases())
def test_strict_basis_matches_oracle(case):
    spec, order, n, q, embedding = case
    field = field_from_string(spec)
    gb = strict_basis(n, q, parse_embedding(embedding, field, q), parse_order(order))
    assert standard_monomials(gb.points, gb.order) == gb.standard_monomials
    for p in gb.polynomials:
        assert vanishes_on(p, gb.points)
    assert gb.is_reduced()
