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
INDEX_TABLE_CAP = 256  # largest finite field the scan runs on table lookups


class _IndexOps:
    """Scan arithmetic through the field's cached tables, on payloads that
    are element indices: one table lookup per cell, no call."""

    def __init__(self, field: Field):
        self.tab = field.tables()
        self.zero, self.one = self.tab.zero, self.tab.one

    def mul(self, a, b):
        return self.tab.mul[a][b]

    def inv(self, a):
        return self.tab.inv[a]

    def times(self, u, v):
        mul = self.tab.mul
        return [mul[a][b] for a, b in zip(u, v)]

    def scale(self, u, s):
        ms = self.tab.mul[s]
        return [ms[x] for x in u]

    def submul(self, u, c, v):
        """u - c*v, elementwise."""
        add, mc = self.tab.add, self.tab.mul[self.tab.neg[c]]
        return [add[a][mc[b]] for a, b in zip(u, v)]


class _PayloadOps:
    """Scan arithmetic through the field's own methods: the only way for
    Q, and the way for finite fields above INDEX_TABLE_CAP."""

    def __init__(self, field: Field):
        self.zero, self.one = field.zero.value, field.one.value
        self.mul, self.inv, self._sub = field._mul, field._inv, field._sub

    def times(self, u, v):
        mul = self.mul
        return [mul(a, b) for a, b in zip(u, v)]

    def scale(self, u, s):
        mul = self.mul
        return [mul(x, s) for x in u]

    def submul(self, u, c, v):
        """u - c*v, elementwise."""
        sub, mul = self._sub, self.mul
        return [sub(a, mul(c, b)) for a, b in zip(u, v)]


def _scan(pts, order: TermOrder, max_degree: int | None):
    """Buchberger-Moller scan over distinct points.

    The values are payloads (for a finite field, element indices).  Over a
    finite field of at most INDEX_TABLE_CAP elements each cell is a lookup
    in the field's cached tables (`Field.tables()`); over Q and larger
    finite fields it is a call of the field's own arithmetic.  The scan is
    the same.

    Candidate monomials come off a heap in ascending term order, and
    only multiples of kept monomials are candidates (a multiple of a
    dependent monomial is a leading monomial too).  A candidate's values
    at the points are its parent's values times one coordinate; they are
    reduced against the kept rows, each normalized to 1 at its pivot and
    recording the multipliers of the rows subtracted from it.  A row is
    zero before its pivot (the first nonzero value left), so only its tail
    from the pivot on is kept and subtracted.

    With max_degree None, stops after |pts| independent monomials and
    returns (kept, None).  Otherwise walks degree <= max_degree only and
    stops at the first dependent monomial m, returning (kept, (m, coeffs))
    where m's values are sum(coeffs[j] * values of kept[j]) and coeffs
    are payloads, or (kept, None) if every candidate is independent.
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
    ops = (_IndexOps if field.size is not None and field.size <= INDEX_TABLE_CAP else _PayloadOps)(field)
    zero = ops.zero
    columns = [[p[i].value for p in pts] for i in range(n)]
    target = len(pts)
    kept = []
    values = {}  # kept monomial -> its values at the points
    rows = []  # (pivot, normalized residual from the pivot on, pivot inverse, [(row index, multiplier)])
    start = (0,) * n
    heap = [(order.key(start), start, None, 0)] if max_degree is None or max_degree >= 0 else []
    seen = {start}
    while heap and (max_degree is not None or len(kept) < target):
        _, m, parent, i = heapq.heappop(heap)
        assert max_degree is not None or sum(m) <= target, "monomial scan ran past the degree bound"
        vec = [ops.one] * target if parent is None else ops.times(values[parent], columns[i])
        res = list(vec)
        multipliers = []
        for j, (pivot, tail, _, _) in enumerate(rows):
            c = res[pivot]
            if c != zero:
                res[pivot:] = ops.submul(res[pivot:], c, tail)
                multipliers.append((j, c))
        pivot = next((k for k, x in enumerate(res) if x != zero), None)
        if pivot is None:
            if max_degree is None:
                continue
            return kept, (m, _back_substitute(ops, rows, multipliers))
        s = ops.inv(res[pivot])
        rows.append((pivot, ops.scale(res[pivot:], s), s, multipliers))
        kept.append(m)
        values[m] = vec
        for i in range(n):
            ext = m[:i] + (m[i] + 1,) + m[i + 1:]
            if ext not in seen and (max_degree is None or sum(ext) <= max_degree):
                seen.add(ext)
                heapq.heappush(heap, (order.key(ext), ext, m, i))
    return kept, None


def _back_substitute(ops, rows, multipliers):
    """Coefficients b_k with sum(c * rows[j] for (j, c) in multipliers)
    equal to sum(b_k * values of kept[k]).

    Row k is s_k * (values of kept[k] - sum(c' * rows[j'])) over its own
    multipliers, so from the last row down each row's weight moves onto
    its monomial's values and onto the rows subtracted from it.
    """
    zero = ops.zero
    weights = [zero] * len(rows)
    for j, c in multipliers:
        weights[j] = c
    coeffs = [zero] * len(rows)
    for k in range(len(rows) - 1, -1, -1):
        if weights[k] != zero:
            _, _, s, below = rows[k]
            b = coeffs[k] = ops.mul(weights[k], s)
            if below:
                js, cs = zip(*below)
                for j, w in zip(js, ops.submul([weights[j] for j in js], b, cs)):
                    weights[j] = w
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
