"""Indicator (Kronecker-delta) polynomials on embedded nondecreasing
sequences, and interpolation of arbitrary functions on them.

The expanded form is a forward substitution in the interval-product basis
of the downset construction: P_g(h) != 0 exactly when h >= g
componentwise, so [P_g(h)] is lower triangular in lex order, and every
term of P_g divides the difference vector of g, so the result lies in the
span of the monomials of degree <= q-1, where it is unique.  For grid
embeddings a factored form (product of q-1 linear polynomials) is built
independently and the two must agree.
"""

from functools import lru_cache
from itertools import product

from .combinatorics import Embedding, increasing_sequences
from .field import FieldElement
from .groebner import _interval_system_factors, expand_factors
from .poly import Polynomial


class FactoredForm:
    """scalar * product of linear polynomials (empty product = 1)."""

    __slots__ = ("n", "scalar", "factors")

    def __init__(self, n: int, scalar: FieldElement, factors):
        self.n = n
        self.scalar = scalar
        self.factors = tuple(factors)

    def expand(self) -> Polynomial:
        result = Polynomial.one(self.scalar.field, self.n)
        for f in self.factors:
            result = result * f
        return result.scale(self.scalar)

    def __repr__(self):
        return f"FactoredForm({self.scalar}, {len(self.factors)} factors)"


class IndicatorPolynomial:
    """The unique degree-(q-1) polynomial that is 1 at one embedded
    sequence and 0 at every other."""

    __slots__ = ("seq", "point", "expanded", "factored")

    def __init__(self, seq, point, expanded: Polynomial, factored: FactoredForm | None):
        self.seq = seq
        self.point = point
        self.expanded = expanded
        self.factored = factored


class Interpolator:
    """Shared triangular solve context for one (n, q, embedding)."""

    def __init__(self, n: int, q: int, embedding: Embedding):
        if embedding.q != q:
            raise ValueError(f"embedding covers [{embedding.q}], expected [{q}]")
        self.n = n
        self.q = q
        self.embedding = embedding
        self.field = embedding.field
        self.sequences = increasing_sequences(n, q)
        self.index = {s: i for i, s in enumerate(self.sequences)}
        self.points = [embedding.apply(s) for s in self.sequences]
        field = self.field
        fsub, fmul, one = field._sub, field._mul, field.one.value
        images = [None] + [x.value for x in embedding.images]
        # span[s][a][b]: product of (i(s) - i(t)) for a <= t < b (1-based),
        # the value one variable's factors of P_g take at coordinate s
        span = [[[one] * (q + 1) for _ in range(q + 1)] for _ in range(q + 1)]
        for s, a in product(range(1, q + 1), repeat=2):
            for b in range(a, q):
                span[s][a][b + 1] = fmul(span[s][a][b], fsub(images[s], images[b]))
        # row h: P_g(h) for every g <= h, built prefix by prefix from g_0 = 1;
        # g = h comes last, on the diagonal
        self._rows = []
        for h in self.sequences:
            partial = [((1,), one)]
            for hj in h:
                partial = [(g + (t,), fmul(v, span[hj][g[-1]][t]))
                           for g, v in partial for t in range(g[-1], hj + 1)]
            *below, (_, diagonal) = partial
            self._rows.append(([(self.index[g[1:]], v) for g, v in below], field._inv(diagonal)))
        self._basis = [[(m, c.value) for m, c in
                        expand_factors(field, n, _interval_system_factors(g, embedding)).terms.items()]
                       for g in self.sequences]

    def _solve(self, rhs, start: int) -> Polynomial:
        """The sum of c_g P_g that takes the raw value rhs[h] at every h,
        by forward substitution from `start` (rhs and c vanish before it)."""
        field = self.field
        fadd, fsub, fmul, zero = field._add, field._sub, field._mul, field.zero.value
        coeffs = {}
        for i in range(start, len(rhs)):
            below, pivot = self._rows[i]
            acc = rhs[i]
            for g, a in below:
                if g in coeffs:
                    acc = fsub(acc, fmul(a, coeffs[g]))
            if acc != zero:
                coeffs[i] = fmul(acc, pivot)
        terms = {}
        for g, c in coeffs.items():
            for m, a in self._basis[g]:
                terms[m] = fadd(terms.get(m, zero), fmul(c, a))
        out = Polynomial.__new__(Polynomial)
        out.field, out.n = field, self.n
        out.terms = {m: FieldElement(field, c) for m, c in terms.items() if c != zero}
        return out

    def indicator(self, seq) -> IndicatorPolynomial:
        seq = tuple(seq)
        idx = self.index.get(seq)
        if idx is None:
            raise ValueError(f"{seq} is not a nondecreasing sequence over [1, {self.q}]")
        rhs = [self.field.zero.value] * len(self.sequences)
        rhs[idx] = self.field.one.value
        expanded = self._solve(rhs, idx)
        factored = self._factored(seq) if self.embedding.is_grid else None
        return IndicatorPolynomial(seq, self.points[idx], expanded, factored)

    def _factored(self, seq) -> FactoredForm:
        """Grid recipe: (x_1 - i(t)) below the first entry, (x_n - i(t))
        above the last, and (x_j - x_{j-1} - c) for c = 0..gap-1 at each
        positive gap; scaled by the inverse of the product's value at the
        distinguished point."""
        field, n, q = self.field, self.n, self.q
        var = lambda j: Polynomial.variable(field, n, j)
        const = lambda v: Polynomial.constant(field, n, v)
        factors = []
        for t in range(1, seq[0]):
            factors.append(var(0) - const(self.embedding.images[t - 1]))
        for t in range(seq[-1] + 1, q + 1):
            factors.append(var(n - 1) - const(self.embedding.images[t - 1]))
        for j in range(1, n):
            gap = seq[j] - seq[j - 1]
            for c in range(gap):
                factors.append(var(j) - var(j - 1) - const(field.from_int(c)))
        point = self.embedding.apply(seq)
        value = field.one
        for f in factors:
            value = value * f.evaluate(point)
        if len(factors) != q - 1:
            raise RuntimeError("grid recipe must produce exactly q-1 factors")  # unreachable
        return FactoredForm(n, value.inverse(), factors)

    def interpolate(self, values) -> Polynomial:
        """The unique polynomial of degree <= q-1 matching a full value
        table on the embedded sequences."""
        table = {tuple(s): v for s, v in values.items()}
        rhs = []
        for s in self.sequences:
            if s not in table:
                raise ValueError(f"value table is missing sequence {s}")
            rhs.append(self.field._canon(table[s]))
        return self._solve(rhs, 0)


@lru_cache(maxsize=32)
def get_interpolator(n: int, q: int, embedding: Embedding) -> Interpolator:
    """Shared per-(n, q, embedding) context; the triangular system and
    the expanded basis are built once and reused for every indicator and
    interpolation."""
    return Interpolator(n, q, embedding)


def indicator(seq, n: int, q: int, embedding: Embedding) -> IndicatorPolynomial:
    return get_interpolator(n, q, embedding).indicator(seq)


def interpolate(values, n: int, q: int, embedding: Embedding) -> Polynomial:
    return get_interpolator(n, q, embedding).interpolate(values)
