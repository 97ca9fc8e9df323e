"""Differential tests: the raw-payload kernels against the wrapped
`Polynomial` implementations they replaced.

The reference copies below live only here.  Each builds its result from
`Polynomial` arithmetic on `FieldElement` coefficients, so the fast
kernels must agree with them exactly: the same remainder terms, the same
reducedness verdict, the same expanded products and values, the same
standard monomials and vanishing polynomials.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import heapq
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from incseq.combinatorics import Embedding, increasing_sequences
from incseq.field import field_from_string
from incseq.groebner import (
    downset_basis,
    expand_factors,
    full_basis,
    is_reduced_basis,
    strict_basis,
)
from incseq.linalg import row_echelon
from incseq.oracle import standard_monomials, vanishing_polynomial
from incseq.poly import (
    DEGLEX,
    LEX,
    Polynomial,
    format_polynomial,
    mono_divides,
    mono_eval,
    monomials_up_to_degree,
    reduce_by_basis,
    sort_monomials,
)

KERNELS = settings(derandomize=True, database=None, deadline=None, max_examples=80,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

FIELDS = [field_from_string(s) for s in ("gf:2", "gf:7", "gf:2^3", "gf:3^2", "rational")]
ORDERS = [LEX, DEGLEX]


# -- reference implementations ---------------------------------------------

def reference_reduce_by_basis(f, basis, order):
    """Re-sort every term, reduce the largest reducible one by the first
    divisor whose leading monomial divides it, repeat."""
    divisors = []
    for g in basis:
        if g.is_zero:
            raise ValueError("zero polynomial in reduction basis")
        f._check(g)
        divisors.append((g.leading_monomial(order), g.terms[g.leading_monomial(order)], g))
    r = f
    while True:
        target = None
        use = None
        for m in sorted(r.terms, key=order.key, reverse=True):
            for lm, lc, g in divisors:
                if mono_divides(lm, m):
                    target, use = m, (lm, lc, g)
                    break
            if target is not None:
                break
        if target is None:
            return r
        lm, lc, g = use
        factor = r.terms[target] / lc
        quotient = tuple(y - x for x, y in zip(lm, target))
        shifted = Polynomial(f.field, f.n, {tuple(a + b for a, b in zip(quotient, m)): c * factor
                                            for m, c in g.terms.items()})
        r = r - shifted


def reference_is_reduced_basis(polys, order):
    """Monic, and no monomial of one member divisible by another's
    leading monomial, by an all-pairs scan."""
    lms = [p.leading_monomial(order) for p in polys]
    for p, lm in zip(polys, lms):
        if p.terms[lm] != p.field.one:
            return False
        for other in lms:
            if other == lm:
                continue
            if any(mono_divides(other, m) for m in p.terms):
                return False
    return True


def reference_expand_factors(field, n, factors):
    result = Polynomial.one(field, n)
    for j, t in factors:
        result = result * (Polynomial.variable(field, n, j) - Polynomial.constant(field, n, t))
    return result


def reference_evaluate(f, point):
    total = f.field.zero
    for m, c in f.terms.items():
        total = total + c * mono_eval(m, point)
    return total


def reference_eliminate(vec, pivot_rows):
    """Reduce vec against rows normalized to leading 1 at their pivot."""
    v = list(vec)
    for p, row in pivot_rows:
        c = v[p]
        if not c.is_zero:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def reference_standard_monomials(points, order):
    """Buchberger-Moller scan evaluating every candidate with `mono_eval`
    and eliminating `FieldElement` vectors."""
    pts = list(dict.fromkeys(points))
    n = len(pts[0])
    target = len(pts)
    kept = []
    pivot_rows = []
    start = (0,) * n
    heap = [(order.key(start), start)]
    seen = {start}
    while heap and len(kept) < target:
        _, m = heapq.heappop(heap)
        vec = reference_eliminate([mono_eval(m, p) for p in pts], pivot_rows)
        pivot = next((i for i, x in enumerate(vec) if not x.is_zero), None)
        if pivot is None:
            continue
        inv = vec[pivot].inverse()
        pivot_rows.append((pivot, [x * inv for x in vec]))
        kept.append(m)
        for i in range(n):
            ext = tuple(e + (1 if j == i else 0) for j, e in enumerate(m))
            if ext not in seen:
                seen.add(ext)
                heapq.heappush(heap, (order.key(ext), ext))
    return frozenset(kept)


def reference_vanishing_polynomial(points, max_degree, order):
    """First kernel vector of the dense evaluation matrix on all
    monomials of degree <= max_degree, read off its reduced row echelon
    form, made monic."""
    pts = list(dict.fromkeys(points))
    n = len(pts[0])
    field = pts[0][0].field
    columns = sort_monomials(monomials_up_to_degree(n, max_degree), order)
    rows = [[mono_eval(m, p) for m in columns] for p in pts]
    echelon, pivots = row_echelon(rows, field)
    pivot_set = set(pivots)
    free = next((c for c in range(len(columns)) if c not in pivot_set), None)
    if free is None:
        return None
    kernel = [field.zero] * len(columns)
    kernel[free] = field.one
    for r, c in enumerate(pivots):
        if c < free:
            kernel[c] = -echelon[r][free]
    return Polynomial(field, n, dict(zip(columns, kernel))).monic(order)


# -- strategies -------------------------------------------------------------

def elements(field, nonzero=False):
    if field.size is None:
        values = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        values = st.sampled_from(field.elements())
    values = values.map(field.element)
    return values.filter(lambda c: not c.is_zero) if nonzero else values


def polynomials(field, n, max_degree, max_terms=6, nonzero=False):
    monomials = st.tuples(*[st.integers(0, max_degree)] * n)
    terms = st.dictionaries(monomials, elements(field, nonzero=True),
                            min_size=1 if nonzero else 0, max_size=max_terms)
    return terms.map(lambda t: Polynomial(field, n, t))


@st.composite
def embeddings(draw, field, q):
    if field.size is None:
        values = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    else:
        values = st.sampled_from(field.elements())
    images = draw(st.lists(values, min_size=q, max_size=q, unique_by=field.element))
    return Embedding.from_elements(field, images)


@st.composite
def downsets(draw, n, q):
    """Downward closure of a few random nondecreasing sequences."""
    seqs = increasing_sequences(n, q)
    generators = draw(st.lists(st.sampled_from(seqs), min_size=1, max_size=3))
    return [h for h in seqs if any(all(a <= b for a, b in zip(h, g)) for g in generators)]


@st.composite
def bases(draw):
    """A closed-form basis: full, strict, downset or minimized downset,
    over a random non-grid embedding."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["full", "strict", "downset", "minimize"]))
    q = draw(st.integers(1, min(4, field.size or 4)))
    n = draw(st.integers(1, min(3, q) if kind == "strict" else 3))
    emb = draw(embeddings(field, q))
    order = draw(st.sampled_from(ORDERS))
    if kind == "full":
        return full_basis(n, q, emb, order)
    if kind == "strict":
        return strict_basis(n, q, emb, order)
    return downset_basis(n, q, draw(downsets(n, q)), emb, order, minimize=kind == "minimize")


@st.composite
def divisor_lists(draw):
    """Arbitrary nonzero divisors: non-monic, and with repeated leading
    monomials (a member and a scaled copy of it, or a shared lead term)."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    order = draw(st.sampled_from(ORDERS))
    divisors = draw(st.lists(polynomials(field, n, 2, max_terms=4, nonzero=True), min_size=1, max_size=4))
    g = draw(st.sampled_from(divisors))
    divisors.append(g.scale(draw(elements(field, nonzero=True))))
    lm = g.leading_monomial(order)
    lower = draw(polynomials(field, n, 2, max_terms=3))
    lower = Polynomial(field, n, {m: c for m, c in lower.terms.items() if order.key(m) < order.key(lm)})
    divisors.append(Polynomial(field, n, {lm: draw(elements(field, nonzero=True))}) + lower)
    return field, n, order, draw(st.permutations(divisors))


@st.composite
def point_lists(draw):
    """A few random points over one field, some of them repeated.  The
    coordinates come from a small random alphabet, so low-degree
    dependencies often appear before the values reach full rank."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    alphabet = draw(st.lists(elements(field), min_size=2, max_size=5, unique=True))
    size = min(draw(st.integers(1, 12)), len(alphabet) ** n)
    grid = list(itertools.product(alphabet, repeat=n))
    distinct = draw(st.lists(st.sampled_from(grid), min_size=size, max_size=size, unique=True))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=3))
    return draw(st.permutations(distinct + repeats))


def _assert_same(got, want):
    assert got == want
    assert format_polynomial(got) == format_polynomial(want)


# -- tests --------------------------------------------------------------------

@KERNELS
@given(bases(), st.data())
def test_reduce_by_closed_form_basis(gb, data):
    f = data.draw(polynomials(gb.embedding.field, gb.n, gb.q + 1, max_terms=8))
    polys = list(gb.polynomials)
    _assert_same(reduce_by_basis(f, polys, gb.order), reference_reduce_by_basis(f, polys, gb.order))
    shuffled = data.draw(st.permutations(polys))
    _assert_same(reduce_by_basis(f, shuffled, gb.order),
                 reference_reduce_by_basis(f, shuffled, gb.order))


@KERNELS
@given(divisor_lists(), st.data())
def test_reduce_by_arbitrary_divisors(divs, data):
    field, n, order, divisors = divs
    f = data.draw(polynomials(field, n, 4, max_terms=8))
    _assert_same(reduce_by_basis(f, divisors, order), reference_reduce_by_basis(f, divisors, order))


@KERNELS
@given(divisor_lists(), st.data())
def test_zero_divisor_raises(divs, data):
    field, n, order, divisors = divs
    f = data.draw(polynomials(field, n, 3))
    at = data.draw(st.integers(0, len(divisors)))
    divisors = divisors[:at] + [Polynomial.zero(field, n)] + divisors[at:]
    with pytest.raises(ValueError, match="zero polynomial"):
        reference_reduce_by_basis(f, divisors, order)
    with pytest.raises(ValueError, match="zero polynomial"):
        reduce_by_basis(f, divisors, order)


@KERNELS
@given(bases(), st.data())
def test_is_reduced_on_closed_form_bases(gb, data):
    polys = list(gb.polynomials)
    assert gb.is_reduced() == reference_is_reduced_basis(polys, gb.order)
    # rescaled members break monicity; dropped or repeated ones change the divisibility pattern
    scale = data.draw(elements(gb.embedding.field, nonzero=True))
    at = data.draw(st.integers(0, len(polys) - 1))
    rescaled = polys[:at] + [polys[at].scale(scale)] + polys[at + 1:]
    subset = data.draw(st.lists(st.sampled_from(polys), min_size=1, max_size=len(polys) + 2))
    for variant in (rescaled, subset):
        assert is_reduced_basis(variant, gb.order) == reference_is_reduced_basis(variant, gb.order)


@KERNELS
@given(divisor_lists())
def test_is_reduced_on_arbitrary_lists(divs):
    _, _, order, divisors = divs
    monic = [g.monic(order) for g in divisors]
    for polys in (divisors, monic, monic[:1], monic[1:]):
        assert is_reduced_basis(polys, order) == reference_is_reduced_basis(polys, order)


@KERNELS
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.data())
def test_expand_factors(field, n, data):
    factors = data.draw(st.lists(st.tuples(st.integers(0, n - 1), elements(field)), max_size=6))
    _assert_same(expand_factors(field, n, factors), reference_expand_factors(field, n, factors))


@KERNELS
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.data())
def test_evaluate(field, n, data):
    f = data.draw(polynomials(field, n, 5, max_terms=8))
    point = data.draw(st.tuples(*[elements(field)] * n))
    got = f.evaluate(point)
    assert got == reference_evaluate(f, point)
    assert got.field is field


@settings(KERNELS, max_examples=200)
@given(point_lists(), st.sampled_from(ORDERS), st.integers(0, 4))
def test_oracle_scan(points, order, max_degree):
    assert standard_monomials(points, order) == reference_standard_monomials(points, order)
    got = vanishing_polynomial(points, max_degree, order)
    want = reference_vanishing_polynomial(points, max_degree, order)
    if want is None:
        assert got is None
    else:
        _assert_same(got, want)
        assert format_polynomial(got, order) == format_polynomial(want, order)
