import random

import pytest

from incseq.combinatorics import Embedding, increasing_sequences
from incseq.field import field_from_string
from incseq.oracle import standard_monomials, vanishes_on, vanishing_polynomial
from incseq.groebner import full_basis, strict_basis
from incseq.poly import DEGLEX, LEX, Polynomial, monomials_up_to_degree

from dense_reference import evaluation_matrix

Q = field_from_string("rational")
GF3 = field_from_string("gf:3")


def test_small_grid_standard_monomials():
    gf2 = field_from_string("gf:2")
    emb = Embedding.grid(gf2, 2, -1)
    pts = [emb.apply(s) for s in increasing_sequences(2, 2)]
    assert standard_monomials(pts, DEGLEX) == {(0, 0), (1, 0), (0, 1)}
    assert standard_monomials(pts, LEX) == {(0, 0), (1, 0), (0, 1)}


def test_single_point():
    assert standard_monomials([(Q.element(7), Q.element(9))], DEGLEX) == {(0, 0)}


def test_reproduces_degree_cap_for_increasing_sets():
    for n in range(1, 5):
        for q in range(1, 5):
            emb = Embedding.grid(Q, q, -1)
            pts = [emb.apply(s) for s in increasing_sequences(n, q)]
            expected = frozenset(monomials_up_to_degree(n, q - 1))
            for order in (LEX, DEGLEX):
                assert standard_monomials(pts, order) == expected


def test_division_closed_and_sized_on_random_sets():
    rng = random.Random(2)
    gf5 = field_from_string("gf:5")
    els = gf5.elements()
    for _ in range(20):
        pts = list({(rng.choice(els), rng.choice(els)) for _ in range(rng.randint(1, 12))})
        for order in (LEX, DEGLEX):
            sm = standard_monomials(pts, order)
            assert len(sm) == len(pts)
            for m in sm:
                for i in range(2):
                    if m[i] > 0:
                        below = tuple(e - (1 if j == i else 0) for j, e in enumerate(m))
                        assert below in sm


def test_collinear_points_need_high_degree():
    # q aligned points force a univariate-style staircase
    pts = [(Q.element(v), Q.element(0)) for v in range(5)]
    assert standard_monomials(pts, DEGLEX) == {(i, 0) for i in range(5)}


def test_vanishing_polynomial_forced_by_counting():
    rng = random.Random(4)
    els = GF3.elements()
    pts = list({(rng.choice(els), rng.choice(els)) for _ in range(10)})[:5]
    f = vanishing_polynomial(pts, 2)
    assert f is not None and not f.is_zero and f.degree() <= 2
    assert vanishes_on(f, pts)
    assert f.terms[f.leading_monomial(DEGLEX)] == GF3.one


def test_vanishing_polynomial_none_below_bound():
    emb = Embedding.grid(Q, 3, -1)
    assert vanishing_polynomial([emb.apply(s) for s in increasing_sequences(2, 3)], 2) is None


def test_vanishing_polynomial_empty_set():
    assert vanishing_polynomial([], 3, field=Q, n=2) == Polynomial.one(Q, 2)
    with pytest.raises(ValueError):
        vanishing_polynomial([], 3)


def test_membership():
    emb = Embedding.grid(Q, 4, -1)
    for n in (1, 2, 3):
        gb = full_basis(n, 4, emb)
        for p in gb.polynomials:
            assert vanishes_on(p, gb.points)
    grid2 = Embedding.grid(Q, 2, -1)
    assert not vanishes_on(Polynomial.one(Q, 2), [grid2.apply(s) for s in increasing_sequences(2, 2)])
    sgb = strict_basis(2, 4, emb)
    assert len(sgb.points) == 6
    for p in sgb.polynomials:
        assert vanishes_on(p, sgb.points)


def test_evaluation_matrix_layout():
    emb = Embedding.grid(GF3, 2, -1)
    pts = [emb.apply(s) for s in increasing_sequences(2, 2)]
    m = evaluation_matrix(pts, monomials_up_to_degree(2, 1), DEGLEX)
    assert m.columns == ((0, 0), (0, 1), (1, 0))
    assert len(m.rows) == 3 and all(len(r) == 3 for r in m.rows)
    assert all(x == GF3.one for x in [r[0] for r in m.rows])


def test_duplicate_points_deduplicated():
    p = (Q.element(1), Q.element(2))
    assert standard_monomials([p, p, p], DEGLEX) == {(0, 0)}


def test_mixed_widths_rejected():
    gf5 = field_from_string("gf:5")
    pts = [(gf5.element(1), gf5.element(2)), (gf5.element(3),)]
    with pytest.raises(ValueError, match="width"):
        standard_monomials(pts, DEGLEX)
    with pytest.raises(ValueError, match="width"):
        vanishing_polynomial(pts, 1)


def test_mixed_fields_rejected():
    gf5, gf7 = field_from_string("gf:5"), field_from_string("gf:7")
    for second in [(gf5.element(3), gf7.element(4)), (gf7.element(3), gf7.element(4)),
                   (gf5.element(3), 4)]:
        pts = [(gf5.element(1), gf5.element(2)), second]
        with pytest.raises(ValueError, match="not an element"):
            standard_monomials(pts, DEGLEX)
        with pytest.raises(ValueError, match="not an element"):
            vanishing_polynomial(pts, 1)
    # an equal field built separately is the same field
    assert standard_monomials([(gf5.element(1),), (field_from_string("gf:5").element(2),)]) == {(0,), (1,)}
