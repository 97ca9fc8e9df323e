"""Differential tests: the raw-payload kernels against the wrapped
`Polynomial` implementations they replaced, and the index-form geometry
against the `FieldElement` geometry it replaced.

The reference copies below live only here.  Each builds its result from
`Polynomial` arithmetic on `FieldElement` coefficients, so the fast
kernels must agree with them exactly: the same remainder terms, the same
reducedness verdict, the same expanded products and values, the same
standard monomials and vanishing polynomials, the same certificates,
witnesses, minima and point sets.  Hypothesis runs derandomized, so the
examples are the same on every run.
"""

import heapq
import itertools
import math
from operator import add, sub
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from incseq import geometry, poly
from incseq.combinatorics import Embedding, increasing_sequences
from incseq.field import FieldElement, field_from_string
from incseq.geometry import (
    COVER_PLANE_CAP,
    LINE_UNION_CAP,
    BoundCheck,
    Certificate,
    CoverSearchResult,
    Hyperplane,
    InconsistencyError,
    PointSet,
    _require_ambient,
    canonical_direction,
    cover_search,
    kakeya_line_union_search,
    kakeya_lower_bound_check,
    line_star,
    verify_kakeya,
    verify_nikodym,
)
from incseq.groebner import (
    _expand_all,
    downset_basis,
    full_basis,
    is_reduced_basis,
    strict_basis,
)
from incseq.oracle import standard_monomials, vanishing_polynomial
from incseq.poly import (
    DEGLEX,
    LEX,
    Polynomial,
    TermOrder,
    format_polynomial,
    mono_divides,
    mono_to_str,
    monomials_up_to_degree,
    parse_polynomial,
    reduce_by_basis,
)

from dense_reference import block_factors, mono_eval, reference_expand, row_echelon

COVER_POINT_CAP = 10**4  # the reference search's own cap on its targets

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


# Copies of `mono_to_str` and `format_polynomial` as they were before the
# monomial text was cached and coefficients were formatted on payloads,
# verbatim but for the names and a plain `sorted` on the term order's key.

def parent_mono_to_str(m: tuple[int, ...]) -> str:
    """`x1^2*x3` style, variables 1-indexed; the empty monomial is `1`."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def parent_format_polynomial(f: Polynomial, order: TermOrder = DEGLEX) -> str:
    """Term grammar: terms joined by ` + `/` - `, descending in the order."""
    if f.is_zero:
        return "0"
    rational = f.field.char == 0
    pieces = []
    for m in sorted(f.terms, key=order.key, reverse=True):
        c = f.terms[m]
        negative = rational and c.value < 0
        mag = -c if negative else c
        mono = parent_mono_to_str(m)
        if mono == "1":
            body = f.field.format_element(mag)
        elif mag == f.field.one:
            body = mono
        else:
            body = f"{f.field.format_element(mag)}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


# Copies of `reduce_by_basis` and `is_reduced_basis` as they were before
# leading monomials were kept on the polynomial.  Three edits only: every
# leading monomial is recomputed by parent_leading_monomial, a max over
# all terms, the remainder is built through Polynomial._raw, and the
# reverse-order heap key is a local function.

def parent_leading_monomial(p, order):
    if p.is_zero:
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=order.key)


def parent_reduce_by_basis(f: Polynomial, basis, order: TermOrder) -> Polynomial:
    """Deterministic normal form of f modulo a list of divisors.

    The reducible monomial chosen at each step is the order-largest one
    divisible by some divisor's leading monomial; the divisor used is the
    first such in list order.  The remainder contains no monomial
    divisible by any divisor's leading monomial.

    One pass in descending order does this: subtracting a multiple of a
    divisor only changes monomials below the one it cancels, so the
    largest working term is always the next monomial to reduce or to
    move to the remainder.
    """
    basis = list(basis)
    lms = []
    for g in basis:
        if g.is_zero:
            raise ValueError("zero polynomial in reduction basis")
        f._check(g)
        lms.append(parent_leading_monomial(g, order))
    # a leading monomial of the term's own degree divides it only by being
    # equal to it; lower ones are scanned in list order
    first = {}
    for i, lm in enumerate(lms):
        first.setdefault(lm, i)
    distinct = [(i, sum(lm), lm) for lm, i in first.items()]  # in list order
    below = {}
    field = f.field
    fsub, fmul, fneg, zero = field._sub, field._mul, field._neg, field.zero.value
    tails = {}

    def key(mono):  # the reverse order: smaller key = larger monomial
        neg = tuple(-e for e in mono)
        return neg if order.kind == "lex" else (-sum(mono), neg)

    work = {m: c.value for m, c in f.terms.items()}
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if c == zero:
            continue
        degree = sum(m)
        lower = below.get(degree)
        if lower is None:
            lower = below[degree] = [(i, lm) for i, d, lm in distinct if d < degree]
        use = first.get(m)
        for i, lm in lower:
            if use is not None and i > use:
                break
            if mono_divides(lm, m):
                use = i
                break
        if use is None:
            remainder[m] = FieldElement(field, c)
            continue
        if use not in tails:
            g, lm = basis[use], lms[use]
            tails[use] = (field._inv(g.terms[lm].value),
                          [(t, tc.value) for t, tc in g.terms.items() if t != lm])
        lc_inv, tail = tails[use]
        factor = fmul(c, lc_inv)
        shift = tuple(map(sub, m, lms[use]))
        for tm, tc in tail:
            mm = tuple(map(add, tm, shift))
            old = work.get(mm)
            if old is None:
                work[mm] = fneg(fmul(tc, factor))
                heapq.heappush(heap, (key(mm), mm))
            else:
                work[mm] = fsub(old, fmul(tc, factor))
    return Polynomial._raw(field, f.n, remainder)


def parent_is_reduced_basis(polys, order: TermOrder) -> bool:
    """Monic, and no monomial of one member divisible by another's
    leading monomial (leading monomials equal to the member's own are
    not "another's").

    Leading monomials are indexed by total degree: one of the term's own
    degree divides it only by being equal to it, so only those of lower
    degree are scanned.
    """
    lms = [parent_leading_monomial(p, order) for p in polys]
    lm_set = set(lms)
    by_degree = sorted((sum(lm), lm) for lm in lm_set)
    for p, lm in zip(polys, lms):
        if p.terms[lm] != p.field.one:
            return False
        for m in p.terms:
            if m != lm and m in lm_set:
                return False
            d = sum(m)
            for e, other in by_degree:
                if e >= d:
                    break
                if other != lm and mono_divides(other, m):
                    return False
    return True


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
    columns = sorted(monomials_up_to_degree(n, max_degree), key=order.key)
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
    f = Polynomial(field, n, dict(zip(columns, kernel)))
    return f.scale(f.terms[f.leading_monomial(order)].inverse())


# The geometry references: the `FieldElement` implementations that the
# index-form ones replaced, verbatim but for the `reference_` prefix.

def reference_increasing_directions(n, q, emb):
    seen = set()
    out = []
    for seq in increasing_sequences(n, q):
        v = emb.apply(seq)
        if all(x.is_zero for x in v):
            continue
        _, canon = canonical_direction(v)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def reference_all_canonical_directions(field, n):
    elements = field.elements()
    return [(field.zero,) * pivot + (field.one,) + tail for pivot in range(n)
            for tail in itertools.product(elements, repeat=n - pivot - 1)]


def reference_transversal(field, n, pivot):
    axes = [field.elements()] * n
    axes[pivot] = (field.zero,)
    return list(itertools.product(*axes))


def reference_lines(field, n, v):
    pivot, v = canonical_direction(v)
    elements = field.elements()
    for base in reference_transversal(field, n, pivot):
        yield base, frozenset(tuple(b + t * d for b, d in zip(base, v)) for t in elements)


def reference_line_star(n, q, field, emb):
    _require_ambient(field, q)
    if emb.field != field:
        raise ValueError("embedding field differs from the ambient field")
    points = {(field.zero,) * n}
    for v in reference_increasing_directions(n, q, emb):
        points |= {tuple(t * d for d in v) for t in field.elements()}
    return PointSet(field, n, points)


def reference_verify_kakeya(K, emb, threshold):
    q = emb.q
    _require_ambient(K.field, q)
    if not 1 <= threshold <= q:
        raise ValueError(f"threshold must be in [1, {q}]")
    entries = []
    for v in reference_increasing_directions(K.n, q, emb):
        found = next((base for base, points in reference_lines(K.field, K.n, v)
                      if len(points & K.points) >= threshold), None)
        if found is None:
            return Certificate((), v)
        entries.append((v, found))
    return Certificate(entries)


def reference_verify_nikodym(B, emb):
    q = emb.q
    _require_ambient(B.field, q)
    directions = reference_all_canonical_directions(B.field, B.n)
    nonzero_ts = [t for t in B.field.elements() if not t.is_zero]
    entries = []
    for seq in increasing_sequences(B.n, q):
        z = emb.apply(seq)
        found = None
        for v in directions:
            if all(tuple(a + t * b for a, b in zip(z, v)) in B.points for t in nonzero_ts):
                found = v
                break
        if found is None:
            return Certificate((), z)
        entries.append((z, found))
    return Certificate(entries)


def reference_kakeya_lower_bound_check(K, directions_set, ell):
    field, n = K.field, K.n
    q = field.size
    if q is None:
        raise ValueError("bound check needs a finite ambient field")
    if not 0 < ell <= q - 1:
        raise ValueError(f"ell must be in (0, {q - 1}]")
    sm = standard_monomials(directions_set.sorted_points(), DEGLEX)
    required = set(monomials_up_to_degree(n, ell))
    if not required <= sm:
        raise ValueError("direction set does not dominate the degree-<= ell monomials")
    bound = math.comb(n + ell, n)
    if len(K) >= bound:
        return BoundCheck(len(K), bound)
    poly = vanishing_polynomial(K.sorted_points(), ell, field=field, n=n)
    if poly is None:
        raise InconsistencyError("no vanishing polynomial despite |K| < column count")
    top = poly.homogeneous_component(poly.degree())
    witness = None
    chain_ok = True
    for v in directions_set.sorted_points():
        if all(x.is_zero for x in v):
            continue
        rich = any(len(points & K.points) >= ell + 1 for _, points in reference_lines(field, n, v))
        top_zero = top.evaluate(v).is_zero
        if rich and not top_zero:
            chain_ok = False  # cannot happen with exact arithmetic
        if not top_zero and witness is None:
            witness = v
    if witness is None:
        raise InconsistencyError("top-degree part vanished on every direction despite the monomial condition")
    return BoundCheck(len(K), bound, poly, witness, chain_ok)


def reference_kakeya_line_union_search(n, q, field, emb):
    _require_ambient(field, q)
    directions = reference_increasing_directions(n, q, emb)
    per_direction = []
    total = 1
    for v in directions:
        lines = [points for _, points in reference_lines(field, n, v)]
        per_direction.append(lines)
        total *= len(lines)
        if total > LINE_UNION_CAP:
            raise ValueError(f"line-union search space exceeds {LINE_UNION_CAP}")
    best_size = None
    best_union = frozenset()
    for choice in itertools.product(*per_direction):
        union = frozenset().union(*choice) if choice else frozenset()
        if best_size is None or len(union) < best_size:
            best_size = len(union)
            best_union = union
    return best_size, PointSet(field, n, best_union)


def reference_cover_targets(n, q, emb, excluded):
    excluded = [tuple(s) for s in excluded]
    if len(excluded) > n:
        raise ValueError(f"at most n={n} excluded points allowed, got {len(excluded)}")
    excluded_pts = {emb.apply(s) for s in excluded}
    targets = dict.fromkeys(p for p in map(emb.apply, increasing_sequences(n, q)) if p not in excluded_pts)
    return list(targets), q - 1 if excluded else q


def reference_canonical_hyperplanes(field, n):
    return [Hyperplane(v, off) for v in reference_all_canonical_directions(field, n)
            for off in field.elements()]


def reference_cover_search(n, q, field, emb, excluded=()):
    targets, bound = reference_cover_targets(n, q, emb, excluded)
    if len(targets) > COVER_POINT_CAP:
        raise ValueError(f"point count {len(targets)} exceeds the cap {COVER_POINT_CAP}")
    planes = reference_canonical_hyperplanes(field, n)
    if len(planes) > COVER_PLANE_CAP:
        raise ValueError(f"hyperplane count {len(planes)} exceeds the cap {COVER_PLANE_CAP}")
    full = (1 << len(targets)) - 1
    masks = []
    for h in planes:
        m = 0
        for i, p in enumerate(targets):
            if h.contains(p):
                m |= 1 << i
        masks.append(m)
    if not targets:
        return CoverSearchResult(0, [], bound)

    # greedy upper bound
    uncovered = full
    greedy = []
    while uncovered:
        best = max(range(len(masks)), key=lambda i: ((masks[i] & uncovered).bit_count(), -i))
        if not masks[best] & uncovered:
            return CoverSearchResult(None, [], None)  # uncoverable: some point on no plane
        greedy.append(best)
        uncovered &= ~masks[best]

    def dfs(start, uncovered, slots, picks):
        if not uncovered:
            return list(picks)
        if slots == 0:
            return None
        # each remaining plane covers at most max_gain new points
        remaining = [i for i in range(start, len(masks)) if masks[i] & uncovered]
        if not remaining:
            return None
        max_gain = max((masks[i] & uncovered).bit_count() for i in remaining)
        if max_gain * slots < uncovered.bit_count():
            return None
        for i in remaining:
            picks.append(i)
            got = dfs(i + 1, uncovered & ~masks[i], slots - 1, picks)
            if got is not None:
                return got
            picks.pop()
        return None

    for size in range(1, len(greedy) + 1):
        got = dfs(0, full, size, [])
        if got is not None:
            return CoverSearchResult(size, [planes[i] for i in got], bound)
    return CoverSearchResult(len(greedy), [planes[i] for i in greedy], bound)


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
def point_lists(draw, fields=FIELDS):
    """A few random points over one field, some of them repeated.  The
    coordinates come from a small random alphabet, so low-degree
    dependencies often appear before the values reach full rank."""
    field = draw(st.sampled_from(fields))
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
def test_reduce_restarts_at_wider_packing(divs, data):
    # at 2-3 bits per digit most inputs and products overflow, so the
    # pass restarts, often more than once
    field, n, order, divisors = divs
    f = data.draw(polynomials(field, n, 4, max_terms=8))
    with mock.patch.object(poly, "PACK_WIDTH", data.draw(st.sampled_from([2, 3]))):
        got = reduce_by_basis(f, divisors, order)
    _assert_same(got, reference_reduce_by_basis(f, divisors, order))


@pytest.mark.parametrize("spec", ["gf:7", "rational"])
@pytest.mark.parametrize("order", ORDERS)
def test_reduce_with_exponents_past_the_default_packing(spec, order):
    # lex reduces x1 to x2^20000, so x1^2 becomes x2^40000 >= 2^15 and
    # x1^4 becomes x2^80000 >= 2^16, past a 16-bit digit; an input term
    # can be that large too
    field = field_from_string(spec)
    x1, x3 = Polynomial.variable(field, 3, 0), Polynomial.variable(field, 3, 2)
    mono = lambda *e: Polynomial(field, 3, {e: field.one})
    c = field.element(3)
    divisors = [x1 - mono(0, 20000, 0), x3 * x3 - x3.scale(c)]
    for f in (x1 * x1 + x1 * x3 + mono(0, 0, 3), mono(4, 0, 0) + x3, mono(1, 40000, 0) + mono(0, 0, 2),
              mono(3, 0, 1) + x3):
        _assert_same(reduce_by_basis(f, divisors, order), reference_reduce_by_basis(f, divisors, order))


def test_reduce_starts_at_the_width_a_divisor_kept():
    # x1^3 reduces to x2^60000 under lex, past a 16-bit digit: the first
    # call restarts at 32 bits, and the second starts there
    field = field_from_string("gf:7")
    x1, x3 = Polynomial.variable(field, 3, 0), Polynomial.variable(field, 3, 2)
    mono = lambda *e: Polynomial(field, 3, {e: field.one})
    divisors = [x1 - mono(0, 20000, 0) + mono(0, 0, k) for k in range(1, 40)]
    f = mono(3, 0, 0) + x3
    widths = []

    def counting(f, basis, order, w):
        widths.append(w)
        return reduce_packed(f, basis, order, w)

    reduce_packed = poly._reduce_packed
    with mock.patch.object(poly, "_reduce_packed", counting):
        first = reduce_by_basis(f, divisors, LEX)
        assert widths == [16, 32]
        widths.clear()
        _assert_same(reduce_by_basis(f, divisors, LEX), first)
        assert widths == [32]
        # a width kept for the other order does not carry over
        widths.clear()
        reduce_by_basis(f, divisors, DEGLEX)
        assert widths[0] == poly.PACK_WIDTH
    _assert_same(first, reference_reduce_by_basis(f, divisors, LEX))


@pytest.mark.parametrize("divisors,f", [
    (["x1 - x2^2", "x2*x3 - x1"], "x1^2*x3 + x2^3"),
    (["x1 + x2", "x2^2 - x3"], "x1^3 + x2*x3^2"),
    (["x1^2 - x2^3"], "x1^2*x3 + x2^3*x3 + x1^3"),
])
def test_reduce_packing_follows_the_order(divisors, f):
    # the same divisors reduced under one order and then the other: the
    # packed form kept from the first order does not fit the second
    field = field_from_string("gf:7")
    divisors = [parse_polynomial(g, field, 3) for g in divisors]
    f = parse_polynomial(f, field, 3)
    for order in (LEX, DEGLEX, LEX):
        _assert_same(reduce_by_basis(f, divisors, order), reference_reduce_by_basis(f, divisors, order))


@KERNELS
@given(divisor_lists(), st.data())
def test_reduce_packing_kept_per_order_and_polynomial(divs, data):
    # a divisor keeps its packed form; another order, or a scaled or
    # negated copy of it, must not reuse it
    field, n, _, divisors = divs
    f = data.draw(polynomials(field, n, 4, max_terms=8))
    for order in (LEX, DEGLEX, LEX):
        _assert_same(reduce_by_basis(f, divisors, order), reference_reduce_by_basis(f, divisors, order))
    c = data.draw(elements(field, nonzero=True))
    for copies in ([g.scale(c) for g in divisors], [-g for g in divisors]):
        # c*g leaves the same remainders as g, so a copy that kept g's
        # packed form would not show in them: check that it starts empty
        assert all(h._packed is None for h in copies)
        for order in (LEX, DEGLEX):
            _assert_same(reduce_by_basis(f, copies, order), reference_reduce_by_basis(f, copies, order))


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
    monic = [g.scale(g.terms[g.leading_monomial(order)].inverse()) for g in divisors]
    for polys in (divisors, monic, monic[:1], monic[1:]):
        assert is_reduced_basis(polys, order) == reference_is_reduced_basis(polys, order)


@st.composite
def vanishing_embeddings(draw, field, q):
    """q images in random order that hold 0 and a pair a, -a (as far as q
    allows), so some expanded coefficients vanish: a factor x_j - 0 has
    no constant term, and (x_j - a)(x_j + a) in one block no x_j term."""
    a = draw(elements(field, nonzero=True))
    head = list(dict.fromkeys([field.zero, a, -a]))[:q]  # a = -a in characteristic 2
    if field.size is None:
        rest = [field.element(v) for v in range(1, 10)]
    else:
        rest = field.elements()
    rest = [x for x in rest if x not in head]
    return Embedding.from_elements(field, draw(st.permutations(head + rest[:q - len(head)])))


@st.composite
def block_products(draw, field, n):
    """(embedding, gap, blocks): one to four size vectors of n blocks,
    with gap points (0 or 1) passed over after each block, all within [q]
    of one embedding from vanishing_embeddings."""
    top = min(field.size or 8, 8)
    gap = draw(st.integers(0, 1 if n <= top else 0))
    room = top - gap * (n - 1)
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        sizes, left = [], room
        for _ in range(n):
            sizes.append(draw(st.integers(0, min(3, left))))
            left -= sizes[-1]
        blocks.append(tuple(draw(st.permutations(sizes))))
    q = draw(st.integers(max(max(map(sum, blocks)) + gap * (n - 1), 1), top))
    return draw(vanishing_embeddings(field, q)), gap, blocks


@KERNELS
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.data())
def test_expand_all(field, n, data):
    emb, gap, blocks = data.draw(block_products(field, n))
    polys = _expand_all(emb, n, gap, blocks)
    assert len(polys) == len(blocks)
    for p, sizes in zip(polys, blocks):
        _assert_same(p, reference_expand(field, n, block_factors(sizes, emb, gap)))


LM_FIELDS = [field_from_string(s) for s in ("gf:7", "gf:3^2", "rational")]


@st.composite
def vanishing_bases(draw):
    """A full, strict, downset or minimized downset basis over GF(7),
    GF(3^2) or Q over vanishing_embeddings."""
    field = draw(st.sampled_from(LM_FIELDS))
    kind = draw(st.sampled_from(["full", "strict", "downset", "minimize"]))
    q = draw(st.integers(1, 5))
    n = draw(st.integers(1, min(3, q) if kind == "strict" else 3))
    emb = draw(vanishing_embeddings(field, q))
    order = draw(st.sampled_from(ORDERS))
    if kind == "full":
        return full_basis(n, q, emb, order)
    if kind == "strict":
        return strict_basis(n, q, emb, order)
    return downset_basis(n, q, draw(downsets(n, q)), emb, order, minimize=kind == "minimize")


@KERNELS
@given(vanishing_bases())
def test_basis_expansion_shares_columns(gb):
    emb, n, gap = gb.embedding, gb.n, 1 if gb.kind == "strict" else 0
    polys = gb.polynomials
    assert len(polys) == len(gb.blocks)
    for p, sizes in zip(polys, gb.blocks):
        alone = _expand_all(emb, n, gap, [sizes])[0]
        want = reference_expand(emb.field, n, block_factors(sizes, emb, gap))
        assert p.terms == alone.terms == want.terms
        assert p._lm == alone._lm
        for order in ORDERS:
            lm = max(want.terms, key=order.key)
            assert p.leading_monomial(order) == alone.leading_monomial(order) == lm
            assert format_polynomial(p, order) == parent_format_polynomial(want, order)
    # one element object per distinct payload across the whole basis
    coefficients = [c for p in polys for c in p.terms.values()]
    assert len({id(c) for c in coefficients}) == len({c.value for c in coefficients})


@st.composite
def formatted_polynomials(draw):
    """Polynomials with coefficients +-1 among the rest (over Q negative,
    integral and non-integral ones), constant-only ones and zero."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    coefficients = st.one_of(st.sampled_from([field.one, -field.one]), elements(field, nonzero=True))
    shape = draw(st.sampled_from(["terms", "constant", "zero"]))
    if shape == "zero":
        return Polynomial.zero(field, n)
    if shape == "constant":
        return Polynomial(field, n, {(0,) * n: draw(coefficients)})
    monomials = st.tuples(*[st.integers(0, 3)] * n)
    return Polynomial(field, n, draw(st.dictionaries(monomials, coefficients, min_size=1, max_size=8)))


@settings(KERNELS, max_examples=200)
@given(formatted_polynomials())
def test_format_polynomial(f):
    for order in ORDERS:
        assert format_polynomial(f, order) == parent_format_polynomial(f, order)
    assert str(f) == parent_format_polynomial(f)
    for m in f.terms:
        assert mono_to_str(m) == parent_mono_to_str(m)


def test_monomial_text_after_eviction():
    bound = mono_to_str.cache_info().maxsize
    probes = [(0, 0, 0), (2, 0, 1), (1,), (0, 5, 1)]
    first = [mono_to_str(m) for m in probes]
    for m in itertools.islice(itertools.product(range(12), repeat=4), bound + 1):
        mono_to_str(m)  # other monomials, past the bound
    filled = mono_to_str.cache_info()
    assert filled.currsize == bound
    again = [mono_to_str(tuple(list(m))) for m in probes]  # equal tuples, not the same objects
    assert mono_to_str.cache_info().misses == filled.misses + len(probes)  # all were evicted
    assert again == first == [parent_mono_to_str(m) for m in probes]
    mono_to_str.cache_clear()


@KERNELS
@given(st.sampled_from(LM_FIELDS), st.integers(1, 4), st.data())
def test_recorded_leading_monomials(field, n, data):
    emb, gap, blocks = data.draw(block_products(field, n))
    products = _expand_all(emb, n, gap, blocks)
    others = data.draw(st.lists(polynomials(field, n, 3, max_terms=5, nonzero=True), max_size=2))
    scale = data.draw(elements(field, nonzero=True))
    # ask in alternating orders, so a kept monomial of the other order is never reused
    for order in ORDERS + ORDERS[::-1]:
        for p in products + others:
            for variant in (p, -p, p.scale(scale)):
                assert variant.leading_monomial(order) == max(variant.terms, key=order.key)
    f = data.draw(polynomials(field, n, 5, max_terms=8))
    divisors = data.draw(st.permutations(products + others))
    for order in ORDERS:
        _assert_same(reduce_by_basis(f, divisors, order), parent_reduce_by_basis(f, divisors, order))
        monic = [g.scale(g.terms[g.leading_monomial(order)].inverse()) for g in divisors]
        for polys in (divisors, products, monic, monic[:1]):
            assert is_reduced_basis(polys, order) == parent_is_reduced_basis(polys, order)


@KERNELS
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.data())
def test_evaluate(field, n, data):
    f = data.draw(polynomials(field, n, 5, max_terms=8))
    point = data.draw(st.tuples(*[elements(field)] * n))
    got = f.evaluate(point)
    assert got == reference_evaluate(f, point)
    assert got.field is field


# GF(257) and GF(2^9) are above oracle.INDEX_TABLE_CAP, so their scans
# call the field's arithmetic as Q's does (GF(2^9)'s through its Zech
# logarithms); the other finite fields look up its tables
SCAN_FIELDS = FIELDS + [field_from_string("gf:257"), field_from_string("gf:2^9")]


@settings(KERNELS, max_examples=200)
@given(point_lists(SCAN_FIELDS), st.sampled_from(ORDERS), st.integers(0, 4))
def test_oracle_scan(points, order, max_degree):
    assert standard_monomials(points, order) == reference_standard_monomials(points, order)
    got = vanishing_polynomial(points, max_degree, order)
    want = reference_vanishing_polynomial(points, max_degree, order)
    if want is None:
        assert got is None
    else:
        _assert_same(got, want)
        assert format_polynomial(got, order) == format_polynomial(want, order)


# -- geometry -------------------------------------------------------------------

GEOMETRY_FIELDS = [field_from_string(s) for s in
                   ("gf:2", "gf:3", "gf:2^2", "gf:5", "gf:7", "gf:2^3", "gf:3^2")]


def _largest_first(values):
    """sampled_from shrinks toward its first value: make that the largest."""
    return st.sampled_from(sorted(values, reverse=True))


@st.composite
def ambients(draw, max_space=125, fields=GEOMETRY_FIELDS):
    """A field of q elements, n with q^n <= max_space, and [q] embedded
    onto the whole field in random order."""
    field = draw(st.sampled_from(fields))
    q = field.size
    n = draw(_largest_first([k for k in (1, 2, 3) if q ** k <= max_space]))
    return field, n, q, draw(embeddings(field, q))


@st.composite
def point_sets(draw, field, n, q, emb):
    """The line star, the whole space or a random set, with a few points
    dropped and a few added, so verdicts go both ways."""
    space = list(itertools.product(field.elements(), repeat=n))
    kind = draw(st.sampled_from(["star", "space", "random"]))
    if kind == "star":
        points = set(line_star(n, q, field, emb).points)
    elif kind == "space":
        points = set(space)
    else:
        points = set(draw(st.lists(st.sampled_from(space), max_size=len(space))))
    points -= set(draw(st.lists(st.sampled_from(space), max_size=3)))
    points |= set(draw(st.lists(st.sampled_from(space), max_size=3)))
    return PointSet(field, n, points)


@st.composite
def exclusions(draw, n, q):
    """0..n valid excluded sequences, repeats allowed."""
    return draw(st.lists(st.sampled_from(increasing_sequences(n, q)), max_size=n))


@st.composite
def cover_cases(draw):
    """A field, n and q <= |F| small enough for the reference's
    deepening from size 1, a random embedding and random exclusions."""
    n = draw(_largest_first([1, 2, 3]))
    field = draw(st.sampled_from([f for f in GEOMETRY_FIELDS if n < 3 or f.size <= 5]))
    q = draw(_largest_first(range(1, min(field.size, [None, 9, 5, 4][n]) + 1)))
    emb = draw(embeddings(field, q))
    return n, q, field, emb, draw(exclusions(n, q))


def _bound_result(check, *args):
    """Every attribute of a bound check's result, or its exception."""
    try:
        r = check(*args)
    except (ValueError, InconsistencyError) as exc:
        return type(exc), str(exc)
    if r.ok:
        return "pass", r.size, r.bound
    return ("counterexample", r.size, r.bound, format_polynomial(r.poly), r.witness_direction,
            r.chain_verified)


def _cover_result(r):
    return r.minimum, r.bound, [(h.normal, h.offset) for h in r.witness]


@KERNELS
@given(ambients(), st.data())
def test_line_star_and_verify_kakeya(ambient, data):
    field, n, q, emb = ambient
    assert line_star(n, q, field, emb).points == reference_line_star(n, q, field, emb).points
    K = data.draw(point_sets(field, n, q, emb))
    threshold = data.draw(st.integers(1, q))
    got, want = verify_kakeya(K, emb, threshold), reference_verify_kakeya(K, emb, threshold)
    assert (got.ok, got.entries, got.failed) == (want.ok, want.entries, want.failed)


def _verdicts(S, emb, q, verify_kakeya=verify_kakeya, verify_nikodym=verify_nikodym):
    kakeya = [verify_kakeya(S, emb, t) for t in range(1, q + 1)]
    nikodym = verify_nikodym(S, emb)
    return ([(c.ok, c.entries, c.failed) for c in kakeya], (nikodym.ok, nikodym.entries, nikodym.failed),
            _bound_result(geometry.nikodym_bound_check, S, emb) if nikodym.ok else None)


@pytest.mark.parametrize("field", GEOMETRY_FIELDS, ids=str)
def test_index_zero_is_the_zero_element(field):
    # _canonical and the direction filters read index 0 as zero
    assert field.tables().zero == 0
    assert field.elements()[0].is_zero


@KERNELS
@given(ambients(), st.data())
def test_index_built_sets_verify_as_element_built(ambient, data):
    """line_star and the line-union search build their sets from index
    tuples; the verifiers read that form straight away and must agree
    with an element-built copy and with the references."""
    field, n, q, emb = ambient
    if data.draw(st.booleans()) and q ** n <= 25 and field in GEOMETRY_FIELDS[:4]:
        S = kakeya_line_union_search(n, q, field, emb)[1]
    else:
        S = line_star(n, q, field, emb)
    got = _verdicts(S, emb, q)
    size, listed = len(S), S.sorted_points()
    assert S._points is None  # no field-element tuple was kept on the way
    copy = PointSet(field, n, S.points)
    assert got == _verdicts(copy, emb, q)
    assert got[:2] == _verdicts(copy, emb, q, reference_verify_kakeya, reference_verify_nikodym)[:2]
    assert (S.points, S.indices, size, listed) == (copy.points, copy.indices, len(copy), copy.sorted_points())


@KERNELS
@given(ambients(), st.data())
def test_verify_nikodym(ambient, data):
    field, n, q, emb = ambient
    B = data.draw(point_sets(field, n, q, emb))
    got, want = verify_nikodym(B, emb), reference_verify_nikodym(B, emb)
    assert (got.ok, got.entries, got.failed) == (want.ok, want.entries, want.failed)
    if got.ok:
        # handing the certificate over gives what computing it does
        assert _bound_result(geometry.nikodym_bound_check, B, emb, got) == \
            _bound_result(geometry.nikodym_bound_check, B, emb)


@KERNELS
@given(ambients(), st.data())
def test_kakeya_lower_bound_check(ambient, data):
    field, n, q, emb = ambient
    space = list(itertools.product(field.elements(), repeat=n))
    D = PointSet(field, n, [emb.apply(s) for s in increasing_sequences(n, q)])
    ell = data.draw(st.integers(1, max(1, q - 1)))
    size = data.draw(st.integers(0, min(len(space), math.comb(n + ell, n) + 1)))
    K = PointSet(field, n, data.draw(st.lists(st.sampled_from(space), min_size=size, max_size=size,
                                              unique=True)))
    assert _bound_result(kakeya_lower_bound_check, K, D, ell) == \
        _bound_result(reference_kakeya_lower_bound_check, K, D, ell)


@KERNELS
@given(ambients(max_space=25, fields=GEOMETRY_FIELDS[:4]))
def test_kakeya_line_union_search(ambient):
    # the reference enumerates every choice of lines, so keep q^n small
    field, n, q, emb = ambient
    got_size, got = kakeya_line_union_search(n, q, field, emb)
    want_size, want = reference_kakeya_line_union_search(n, q, field, emb)
    assert (got_size, got.points) == (want_size, want.points)


@KERNELS
@given(cover_cases())
def test_cover_search(case):
    n, q, field, emb, excluded = case
    assert _cover_result(cover_search(n, q, field, emb, excluded)) == \
        _cover_result(reference_cover_search(n, q, field, emb, excluded))


def test_cover_search_one_plane_per_target():
    """A cover of 997 planes, one per point of GF(997), is searched without
    recursion: the deepening starts at the bound when the oracle finds no
    vanishing polynomial below it."""
    field = field_from_string("gf:997")
    emb = Embedding.grid(field, 997, -1)
    with mock.patch.object(geometry, "vanishing_polynomial", lambda *args, **kwargs: None):
        got = cover_search(1, 997, field, emb)
    assert (got.minimum, got.bound) == (997, 997)
    assert [(h.normal, h.offset) for h in got.witness] == [((field.one,), c) for c in field.elements()]


@settings(KERNELS, max_examples=40)
@given(cover_cases())
def test_cover_search_without_certificate(case):
    """An oracle that finds a vanishing polynomial below the bound sends
    the deepening back to size 1, which must give the same answer."""
    n, q, field, emb, excluded = case
    calls = []

    def found(points, max_degree, *args, **kwargs):
        calls.append(max_degree)
        return Polynomial.one(field, n)

    with mock.patch.object(geometry, "vanishing_polynomial", found):
        got = cover_search(n, q, field, emb, excluded)
    assert _cover_result(got) == _cover_result(reference_cover_search(n, q, field, emb, excluded))
    assert len(calls) == (1 if got.minimum else 0)
