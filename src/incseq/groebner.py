"""Closed-form Groebner bases and standard monomials for vanishing
ideals of embedded (strictly) increasing sequences and their downsets,
plus Hilbert values and nonvanishing-witness search.

Every basis element is a block polynomial: a product of linear factors
(x_j - i(t)) over n consecutive blocks of [q], fixed by its vector of
block sizes, which is also its leading exponent.  Elements are stored
factored and expanded on demand.
"""

import math
from functools import cached_property

from .combinatorics import (
    Embedding,
    _check_embedding,
    compositions,
    difference_vector,
    increasing_sequences,
    is_downset,
    is_increasing,
)
from .field import FieldElement
from .poly import DEGLEX, Polynomial, TermOrder, mono_divides, monomials_up_to_degree

# points skipped between neighbouring blocks: the shift g_j = s_j - (j-1)
# maps the strictly increasing sequences onto I(n, q - n + 1)
_GAPS = {"full": 0, "strict": 1}


def _block_factors(sizes, emb: Embedding, skip: int = 0):
    """Linear factors (variable position, root) of a block polynomial:
    block j holds the next sizes[j] points t of [q], as factors
    (x_j - i(t)), and skip points are passed over after each block.  The
    size vector is the leading exponent."""
    images, factors, t = emb.images, [], 0
    for j, size in enumerate(sizes):
        factors.extend((j, x) for x in images[t:t + size])
        t += size + skip
    return tuple(factors)


def _expand_all(field, n, factor_lists) -> list[Polynomial]:
    """The product of each list of factors (x_j - t), 0 <= j < n and t an
    element of field; an empty product is 1.  A product is the tensor
    product of its n univariate columns, so no two terms ever meet.  A
    column depends only on its roots, so each distinct one is expanded
    once for all the lists (a closed-form basis has at most q(q+1)/2 + 1),
    and each distinct payload is wrapped in one FieldElement that its
    terms share."""
    fsub, fmul, zero, one = field._sub, field._mul, field.zero.value, field.one.value
    columns = {}  # roots -> [(degree, payload)] of the nonzero coefficients
    shared = {}  # payload -> its one element, hashing each payload once
    out = []
    for factors in factor_lists:
        roots = [[] for _ in range(n)]
        for j, t in factors:
            roots[j].append(t.value)
        cols = []
        for r in map(tuple, roots):
            col = columns.get(r)
            if col is None:
                c = [one]  # degree 0 first
                for t in r:
                    c = [fsub(a, fmul(t, b)) for a, b in zip([zero] + c, c + [zero])]
                col = columns[r] = [(k, a) for k, a in enumerate(c) if a != zero]
            cols.append(col)
        terms = {(k,): a for k, a in cols[0]} if n else {(): one}
        for col in cols[1:]:
            terms = {m + (k,): fmul(c, a) for m, c in terms.items() for k, a in col}
        # each variable's factors multiply out monic, so every term divides
        # the product of the tops: that leads under every order.  Re-keying
        # its term by the recorded tuple keeps one copy of it per polynomial.
        lm = tuple(map(len, roots))
        for m, c in terms.items():
            e = shared.get(c)
            if e is None:
                e = shared[c] = FieldElement(field, c)
            terms[m] = e
        terms[lm] = terms.pop(lm)
        out.append(Polynomial._raw(field, n, terms, (None, lm)))
    return out


class GroebnerBasis:
    """A constructed basis with its standard monomial set.

    kind is one of full / strict / downset; the polynomials generate the
    vanishing ideal of the corresponding embedded point set.
    """

    __slots__ = ("kind", "n", "q", "embedding", "order", "factored", "standard_monomials",
                 "downset", "__dict__")

    def __init__(self, kind, n, q, embedding, order, factored, standard_monomials, downset=None):
        self.kind = kind
        self.n = n
        self.q = q
        self.embedding = embedding
        self.order = order
        self.factored = tuple(factored)
        self.standard_monomials = frozenset(standard_monomials)
        self.downset = frozenset(downset) if downset is not None else None

    @cached_property
    def polynomials(self) -> tuple[Polynomial, ...]:
        return tuple(_expand_all(self.embedding.field, self.n, self.factored))

    @cached_property
    def points(self) -> tuple:
        """The embedded point set the basis polynomials vanish on."""
        if self.kind == "downset":
            seqs = sorted(self.downset)
        else:
            seqs = increasing_sequences(self.n, self.q, self.kind == "strict")
        return tuple(map(self.embedding.apply, seqs))

    def is_reduced(self) -> bool:
        return is_reduced_basis(self.polynomials, self.order)


def is_reduced_basis(polys, order: TermOrder) -> bool:
    """Monic, and no monomial of one member divisible by another's
    leading monomial (leading monomials equal to the member's own are
    not "another's").

    Leading monomials are indexed by total degree: one of the term's own
    degree divides it only by being equal to it, so only those of lower
    degree are scanned.
    """
    lms = [p.leading_monomial(order) for p in polys]
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


def sequence_basis(kind: str, n: int, q: int, embedding: Embedding,
                   order: TermOrder = DEGLEX) -> GroebnerBasis:
    """Basis of the ideal of the embedded sequences of a kind, with d =
    degree_bound(kind, n, q): one block polynomial per composition of d+1
    into n block sizes, the kind's gap of points skipped between blocks;
    the standard monomials are everything of degree <= d."""
    d = degree_bound(kind, n, q)
    _check_embedding(q, embedding)
    factored = [_block_factors(sizes, embedding, _GAPS[kind]) for sizes in compositions(d + 1, n)]
    return GroebnerBasis(kind, n, q, embedding, order, factored, monomials_up_to_degree(n, d))


def full_basis(n: int, q: int, embedding: Embedding, order: TermOrder = DEGLEX) -> GroebnerBasis:
    """Basis for the nondecreasing sequences (sequence_basis, kind full)."""
    return sequence_basis("full", n, q, embedding, order)


def strict_basis(n: int, q: int, embedding: Embedding, order: TermOrder = DEGLEX) -> GroebnerBasis:
    """Basis for the strictly increasing sequences (sequence_basis, kind strict)."""
    return sequence_basis("strict", n, q, embedding, order)


def downset_basis(n: int, q: int, points, embedding: Embedding, order: TermOrder = DEGLEX,
                  minimize: bool = False) -> GroebnerBasis:
    """Basis for a nonempty downset F of nondecreasing sequences.

    The full-ideal block polynomials are kept verbatim and one block
    polynomial with sizes difference_vector(g) is added per sequence g
    outside F; standard monomials are the difference vectors of F.  With
    minimize=True, members whose leading monomial (size vector) is
    divisible by another member's are dropped (the construction is not
    inter-reduced by default).  The blocks are every monomial of degree
    <= q outside the standard monomials, which are closed under division,
    so a block is minimal exactly when each one-step divisor (one
    nonzero entry lowered by 1) is a standard monomial.
    """
    downset = frozenset(tuple(p) for p in points)
    sm = standard_monomials("downset", n, q, downset)
    _check_embedding(q, embedding)
    blocks = list(compositions(q, n))
    blocks += [difference_vector(g) for g in increasing_sequences(n, q) if g not in downset]
    if minimize:
        blocks = [b for b in blocks if all(b[:j] + (e - 1,) + b[j + 1:] in sm for j, e in enumerate(b) if e)]
    factored = [_block_factors(sizes, embedding) for sizes in blocks]
    return GroebnerBasis("downset", n, q, embedding, order, factored, sm, downset=downset)


def standard_monomials(kind: str, n: int, q: int, downset=()) -> set:
    """The standard monomials of a kind's basis, without building it:
    everything of degree <= degree_bound(kind, n, q), or the difference
    vectors of a downset, which must be nonempty and closed downward."""
    if kind != "downset":
        return set(monomials_up_to_degree(n, degree_bound(kind, n, q)))
    downset = set(map(tuple, downset))
    if not downset:
        raise ValueError("downset must be nonempty")
    if not is_downset(downset, n, q):
        raise ValueError("point set is not a downset")
    return set(map(difference_vector, downset))


def expanded_terms(kind: str, n: int, q: int, downset=()) -> int:
    """Terms of the expanded basis of a kind, counted without building it
    as if no coefficient vanished: an upper bound, exact for images 1..q
    over Q.  For a downset, the count before minimizing.

    A block with s_j factors in x_j expands to prod(s_j + 1) terms.  The
    block sizes of a full or strict basis run over the compositions of
    d + 1 into n parts, d = degree_bound(kind, n, q), which gives
    binom(d + 2n, 2n - 1).  A downset basis adds to the full one a block
    per sequence g outside F, with sizes difference_vector(g); over all of
    I(n, q) those sum to binom(q + 2n - 1, 2n).
    """
    if kind != "downset":
        return math.comb(degree_bound(kind, n, q) + 2 * n, 2 * n - 1)
    inside = {tuple(g) for g in downset if len(g) == n and is_increasing(g, q)}
    return expanded_terms("full", n, q) + math.comb(q + 2 * n - 1, 2 * n) - sum(
        math.prod(d + 1 for d in difference_vector(g)) for g in inside)


def degree_bound(kind: str, n: int, q: int) -> int:
    """Top degree d = q - 1 - (n - 1) * gap of the standard monomials: q-1
    for the nondecreasing sequences (kind full, gap 0), q-n for the
    strictly increasing ones (kind strict, gap 1, which needs q >= n)."""
    if n < 1 or q < 1:
        raise ValueError("n and q must be >= 1")
    if kind not in _GAPS:
        raise ValueError(f"unknown kind {kind!r}")
    d = q - 1 - (n - 1) * _GAPS[kind]
    if d < 0:
        raise ValueError(f"strict kind needs q >= n, got n={n}, q={q}")
    return d


def hilbert_value(kind: str, n: int, q: int, s: int) -> tuple[int, bool]:
    """(value, closed_form): the dimension of the degree-<= s polynomial
    functions on the point set, binom(n+s, s) with closed_form True within
    the degree bound, and beyond it the saturated standard-monomial count
    with closed_form False."""
    if s < 0:
        raise ValueError("s must be >= 0")
    smax = degree_bound(kind, n, q)
    eff = min(s, smax)
    return math.comb(n + eff, eff), s <= smax


def check_degree(f: Polynomial, kind: str, n: int, q: int):
    """Refuse f above the degree bound of kind, where a nonzero f may vanish on every point."""
    if f.degree() > (bound := degree_bound(kind, n, q)):
        raise ValueError(f"degree {f.degree()} exceeds the bound {bound} for kind {kind!r}")


def nonvanishing_point(f: Polynomial, kind: str, n: int, q: int, embedding: Embedding):
    """A point of the embedded sequence set where f does not vanish
    (first in enumeration order), or None when f is the zero polynomial.

    Only applicable below the degree bound (q-1 nondecreasing, q-n
    strict), where a witness is guaranteed for nonzero f.
    """
    check_degree(f, kind, n, q)
    if f.is_zero:
        return None
    _check_embedding(q, embedding)
    for seq in increasing_sequences(n, q, kind == "strict"):
        point = embedding.apply(seq)
        if not f.evaluate(point).is_zero:
            return point
    raise RuntimeError("no nonvanishing point found for a nonzero polynomial")  # unreachable
