"""Indicator (Kronecker-delta) polynomials on embedded nondecreasing
sequences, and interpolation of arbitrary functions on them.

The expanded form is solved in the interval-product basis P_g(x) =
prod_j phi(x_j; g_{j-1}, g_j), g_0 = 1, phi(s; a, b) = prod_{a<=t<b}
(s - i(t)).  Each factor involves one coordinate, so sum_g c_g P_g(h) =
r(h) is Newton interpolation on a lower set, one coordinate at a time: a
forward sweep of divided differences along x_1..x_n (after sweep j the
values are keyed by (g_1..g_j, h_{j+1}..h_n), again a sequence), then a
backward sweep of Horner steps along x_n..x_1 into powers of x_j (the key
(g_1..g_j, e_{j+1}..e_n) sits at the sequence that climbs from g_j by
e_{j+1}, ..., e_n).  All-zero groups are skipped, so an indicator touches
only the g >= its sequence.  A solve costs O(n N q) field operations for N
sequences, with no N x N table.  The result spans the monomials of degree
<= q-1, where it is unique.  For grid embeddings a factored form (product
of q-1 linear polynomials) is built independently and the two must agree.
"""

from functools import lru_cache

from .combinatorics import Embedding, _check_embedding, difference_vector, increasing_sequences
from .field import FieldElement
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


class IndicatorPolynomial:
    """The unique degree-(q-1) polynomial that is 1 at one embedded
    sequence and 0 at every other."""

    __slots__ = ("point", "expanded", "factored")

    def __init__(self, point, expanded: Polynomial, factored: FactoredForm | None):
        self.point = point
        self.expanded = expanded
        self.factored = factored


def _groups(sequences, j, key):
    """(0-based node of the first entry, indices) for the groups of
    sequences that share key(s), each in index order; groups of one
    sequence are left out, as neither sweep changes them."""
    groups = {}
    for i, s in enumerate(sequences):
        groups.setdefault(key(s), []).append(i)
    return [(sequences[g[0]][j] - 1, g) for g in groups.values() if len(g) > 1]


class Interpolator:
    """Newton sweep context for one (n, q, embedding)."""

    def __init__(self, n: int, q: int, embedding: Embedding):
        _check_embedding(q, embedding)
        self.n = n
        self.q = q
        self.embedding = embedding
        self.field = embedding.field
        self.sequences = seqs = increasing_sequences(n, q)
        self.index = {s: i for i, s in enumerate(seqs)}
        field = self.field
        # nodes[t] = i(t + 1); inverses[u][w] = 1 / (i(u + 1) - i(w + 1)) for w < u
        self._nodes = nodes = [x.value for x in embedding.images]
        self._inverses = [[field._inv(field._sub(nodes[u], nodes[w])) for w in range(u)]
                          for u in range(q)]
        # per coordinate j, the groups that vary only g_j: the forward
        # sweep fixes every other entry, the backward sweep the entries
        # before j and the steps after it
        self._forward = [_groups(seqs, j, lambda s: s[:j] + s[j + 1:]) for j in range(n)]
        self._backward = [_groups(seqs, j, lambda s: s[:j] + tuple(b - a for a, b in zip(s[j:], s[j + 1:])))
                          for j in range(n)]
        self._monomials = [difference_vector(s) for s in seqs]

    def _solve(self, vals) -> Polynomial:
        """The sum of c_g P_g that takes the raw value vals[h] at every h,
        in monomial form; overwrites vals.  A group is skipped when each
        entry is the zero payload object itself (no field call); a computed
        zero is swept like any other value."""
        field = self.field
        fsub, fmul, zero = field._sub, field._mul, field.zero.value
        nodes, inverses = self._nodes, self._inverses
        for groups in self._forward:
            for a, idx in groups:
                for first, i in enumerate(idx):
                    if vals[i] is not zero:
                        break
                else:
                    continue
                v = [vals[i] for i in idx]
                # divided differences; the leading zeros stay zero
                for k in range(1, len(v)):
                    for l in range(len(v) - 1, max(k, first) - 1, -1):
                        v[l] = fmul(fsub(v[l], v[l - 1]), inverses[a + l][a + l - k])
                for l in range(first, len(v)):
                    vals[idx[l]] = v[l]
        for groups in reversed(self._backward):
            for a, idx in groups:
                for top in range(len(idx) - 1, -1, -1):
                    if vals[idx[top]] is not zero:
                        break
                else:
                    continue
                # p <- p * (x - node) + d, from the highest Newton coefficient down
                p = [vals[idx[top]]]
                for l in range(top - 1, -1, -1):
                    x = nodes[a + l]
                    p.append(p[-1])
                    for k in range(len(p) - 2, 0, -1):
                        p[k] = fsub(p[k - 1], fmul(x, p[k]))
                    p[0] = fsub(vals[idx[l]], fmul(x, p[0]))
                for l, c in enumerate(p):
                    vals[idx[l]] = c
        terms = {m: FieldElement(field, c) for m, c in zip(self._monomials, vals)
                 if c is not zero and c != zero}
        return Polynomial._raw(field, self.n, terms)

    def indicator(self, seq) -> IndicatorPolynomial:
        seq = tuple(seq)
        idx = self.index.get(seq)
        if idx is None:
            raise ValueError(f"{seq} is not a nondecreasing sequence over [1, {self.q}]")
        vals = [self.field.zero.value] * len(self.sequences)
        vals[idx] = self.field.one.value
        expanded = self._solve(vals)
        factored = self._factored(seq) if self.embedding.is_grid else None
        return IndicatorPolynomial(self.embedding.apply(seq), expanded, factored)

    def _factored(self, seq) -> FactoredForm:
        """Grid recipe: (x_1 - i(t)) below the first entry, (x_n - i(t))
        above the last, and (x_j - x_{j-1} - c) for c = 0..gap-1 at each
        positive gap; scaled by the inverse of the product's value at the
        distinguished point, taken factor by factor on its payloads."""
        field, n, q, images, nodes = self.field, self.n, self.q, self.embedding.images, self._nodes
        fsub, fmul = field._sub, field._mul
        x = [nodes[s - 1] for s in seq]  # the distinguished point's payloads
        var = lambda j: Polynomial.variable(field, n, j)
        const = lambda v: Polynomial.constant(field, n, v)
        factors, value = [], field.one.value
        for j, ts in ((0, range(1, seq[0])), (n - 1, range(seq[-1] + 1, q + 1))):
            for t in ts:
                factors.append(var(j) - const(images[t - 1]))
                value = fmul(value, fsub(x[j], nodes[t - 1]))
        for j in range(1, n):
            for c in map(field.element, range(seq[j] - seq[j - 1])):
                factors.append(var(j) - var(j - 1) - const(c))
                value = fmul(value, fsub(fsub(x[j], x[j - 1]), c.value))
        if len(factors) != q - 1:
            raise RuntimeError("grid recipe must produce exactly q-1 factors")  # unreachable
        return FactoredForm(n, FieldElement(field, field._inv(value)), factors)

    def interpolate(self, values) -> Polynomial:
        """The unique polynomial of degree <= q-1 matching a full value
        table on the embedded sequences; every key must be one of them,
        exactly once."""
        vals = [None] * len(self.sequences)
        for s, v in values.items():
            i = self.index.get(tuple(s))
            if i is None:
                raise ValueError(f"value table key {tuple(s)} is not a nondecreasing sequence "
                                 f"of length {self.n} over [1, {self.q}]")
            if vals[i] is not None:
                raise ValueError(f"value table repeats sequence {self.sequences[i]}")
            vals[i] = self.field._canon(v)
        if len(values) < len(vals):
            missing = next(s for s, v in zip(self.sequences, vals) if v is None)
            raise ValueError(f"value table is missing sequence {missing}")
        return self._solve(vals)


@lru_cache(maxsize=32)
def get_interpolator(n: int, q: int, embedding: Embedding) -> Interpolator:
    """Shared per-(n, q, embedding) context; the sweep groups and node
    inverses are built once and reused for every indicator and
    interpolation."""
    return Interpolator(n, q, embedding)


def indicator(seq, n: int, q: int, embedding: Embedding) -> IndicatorPolynomial:
    return get_interpolator(n, q, embedding).indicator(seq)


def interpolate(values, n: int, q: int, embedding: Embedding) -> Polynomial:
    return get_interpolator(n, q, embedding).interpolate(values)
