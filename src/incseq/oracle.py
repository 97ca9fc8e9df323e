"""Brute-force ground truth via evaluation matrices.

Standard monomials, vanishing polynomials, and membership tests computed
directly from point evaluations, independent of any closed form.  Used
to certify the constructions in the groebner, interpolation, and
geometry modules.
"""

import heapq

from .field import Field, FieldElement
from .poly import DEGLEX, Polynomial, TermOrder

ORACLE_POINT_CAP = 2000  # points the CLI will scan (1,716 for jnq:7,7)


def _scan(pts, order: TermOrder, max_degree: int | None):
    """Buchberger-Moller scan over distinct points, on raw payloads.

    Candidate monomials come off a heap in ascending term order, and
    only multiples of kept monomials are candidates (a multiple of a
    dependent monomial is a leading monomial too).  A candidate's values
    at the points are its parent's values times one coordinate; they are
    reduced against the kept rows, each normalized to 1 at its pivot and
    recording the multipliers of the rows subtracted from it.

    With max_degree None, stops after |pts| independent monomials and
    returns (kept, None).  Otherwise walks degree <= max_degree only and
    stops at the first dependent monomial m, returning (kept, (m, coeffs))
    where m's values are sum(coeffs[j] * values of kept[j]), or
    (kept, None) if every candidate is independent.
    """
    if not pts[0] or not isinstance(pts[0][0], FieldElement):
        raise ValueError("points must be nonempty tuples of field elements")
    field = pts[0][0].field
    n = len(pts[0])
    for p in pts:
        if len(p) != n:
            raise ValueError(f"point width {len(p)} != {n}")
        for x in p:
            if not isinstance(x, FieldElement) or (x.field is not field and x.field != field):
                raise ValueError(f"coordinate {x!r} is not an element of {field!r}")
    zero = field.zero.value
    sub, mul = field._sub, field._mul
    columns = [[p[i].value for p in pts] for i in range(n)]
    target = len(pts)
    kept = []
    values = {}  # kept monomial -> its values at the points
    rows = []  # (pivot, normalized residual, pivot inverse, [(row index, multiplier)])
    start = (0,) * n
    heap = [(order.key(start), start, None, 0)] if max_degree is None or max_degree >= 0 else []
    seen = {start}
    while heap and (max_degree is not None or len(kept) < target):
        _, m, parent, i = heapq.heappop(heap)
        assert max_degree is not None or sum(m) <= target, "monomial scan ran past the degree bound"
        vec = ([field.one.value] * target if parent is None
               else [mul(a, b) for a, b in zip(values[parent], columns[i])])
        res = vec
        multipliers = []
        for j, (pivot, row, _, _) in enumerate(rows):
            c = res[pivot]
            if c != zero:
                res = [sub(a, mul(c, b)) for a, b in zip(res, row)]
                multipliers.append((j, c))
        pivot = next((k for k, x in enumerate(res) if x != zero), None)
        if pivot is None:
            if max_degree is None:
                continue
            return kept, (m, _back_substitute(field, rows, multipliers))
        s = field._inv(res[pivot])
        rows.append((pivot, [mul(x, s) for x in res], s, multipliers))
        kept.append(m)
        values[m] = vec
        for i in range(n):
            ext = m[:i] + (m[i] + 1,) + m[i + 1:]
            if ext not in seen and (max_degree is None or sum(ext) <= max_degree):
                seen.add(ext)
                heapq.heappush(heap, (order.key(ext), ext, m, i))
    return kept, None


def _back_substitute(field: Field, rows, multipliers):
    """Coefficients b_k with sum(c * rows[j] for (j, c) in multipliers)
    equal to sum(b_k * values of kept[k]).

    Row k is s_k * (values of kept[k] - sum(c' * rows[j'])) over its own
    multipliers, so from the last row down each row's weight moves onto
    its monomial's values and onto the rows subtracted from it.
    """
    zero = field.zero.value
    sub, mul = field._sub, field._mul
    weights = [zero] * len(rows)
    for j, c in multipliers:
        weights[j] = c
    coeffs = [zero] * len(rows)
    for k in range(len(rows) - 1, -1, -1):
        if weights[k] != zero:
            _, _, s, below = rows[k]
            b = coeffs[k] = mul(weights[k], s)
            for j, c in below:
                weights[j] = sub(weights[j], mul(b, c))
    return coeffs


def standard_monomials(points, order: TermOrder = DEGLEX) -> frozenset:
    """Standard monomials of the vanishing ideal of a finite point set.

    Buchberger-Moller-style scan: walk candidate monomials in ascending
    term order, keep one iff its evaluation vector is independent of the
    kept ones, and extend candidates only from kept monomials (any
    multiple of a rejected monomial is a leading monomial too).  Stops
    after |points| keepers.  Points must share one width and one field.
    """
    pts = list(dict.fromkeys(points))
    if not pts:
        raise ValueError("point set must be nonempty")
    kept, _ = _scan(pts, order, None)
    if len(kept) != len(pts):
        raise RuntimeError("standard monomial scan terminated early")  # unreachable
    return frozenset(kept)


def vanishing_polynomial(points, max_degree: int, order: TermOrder = DEGLEX,
                         field: Field | None = None, n: int | None = None):
    """A nonzero polynomial of degree <= max_degree vanishing on all the
    points, or None if none exists.  Deterministic: the first kernel
    vector of the evaluation matrix on the monomials of degree <=
    max_degree in ascending order, normalized to leading coefficient 1.
    Its leading monomial is the first one dependent on the smaller ones,
    which the scan finds, and its other coefficients are those of that
    dependence.

    The empty set is vanished on by the constant 1; field and n must be
    passed explicitly in that case.
    """
    pts = list(dict.fromkeys(points))
    if not pts:
        if field is None or n is None:
            raise ValueError("empty point set: pass field and n explicitly")
        return Polynomial.one(field, n)
    kept, dependent = _scan(pts, order, max_degree)
    if dependent is None:
        return None
    lead, coeffs = dependent
    field = pts[0][0].field
    terms = {m: FieldElement(field, field._neg(c)) for m, c in zip(kept, coeffs)}
    terms[lead] = field.one
    return Polynomial(field, len(lead), terms)


def vanishes_on(f: Polynomial, points) -> bool:
    return all(f.evaluate(p).is_zero for p in points)
