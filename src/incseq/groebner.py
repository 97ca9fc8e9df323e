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

EXPANSION_CAP = 10**6  # terms in an expanded basis the CLI will build


def _block_factors(sizes, emb: Embedding, skip: int = 0):
    """Linear factors (variable position, root) of a block polynomial:
    block j holds the next sizes[j] points t of [q], as factors
    (x_j - i(t)), and skip points are passed over after each block.
    The size vector is the leading exponent, so the compositions of q
    (full) and of q - n + 1 with skip 1 (strict) biject onto the
    monomials of degree q and q - n + 1; the downset block for g has
    sizes difference_vector(g)."""
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

    def sorted_standard_monomials(self) -> list:
        return sorted(self.standard_monomials, key=self.order.key)


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


def full_basis(n: int, q: int, embedding: Embedding, order: TermOrder = DEGLEX) -> GroebnerBasis:
    """Basis of the ideal of all embedded nondecreasing sequences: one
    block polynomial per composition of q into n block sizes; standard
    monomials are everything of degree <= q-1."""
    _check_embedding(q, embedding)
    factored = [_block_factors(sizes, embedding) for sizes in compositions(q, n)]
    sm = monomials_up_to_degree(n, degree_bound("full", n, q))
    return GroebnerBasis("full", n, q, embedding, order, factored, sm)


def strict_basis(n: int, q: int, embedding: Embedding, order: TermOrder = DEGLEX) -> GroebnerBasis:
    """Basis for strictly increasing sequences: one block polynomial per
    composition of q-n+1 into n block sizes, one point skipped between
    blocks; standard monomials have degree <= q-n."""
    bound = degree_bound("strict", n, q)
    _check_embedding(q, embedding)
    factored = [_block_factors(sizes, embedding, skip=1) for sizes in compositions(q - n + 1, n)]
    sm = monomials_up_to_degree(n, bound)
    return GroebnerBasis("strict", n, q, embedding, order, factored, sm)


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
    if not downset:
        raise ValueError("downset must be nonempty")
    if not is_downset(downset, n, q):
        raise ValueError("point set is not a downset")
    _check_embedding(q, embedding)
    blocks = list(compositions(q, n))
    blocks += [difference_vector(g) for g in increasing_sequences(n, q) if g not in downset]
    sm = {difference_vector(g) for g in downset}
    if minimize:
        blocks = [b for b in blocks if all(b[:j] + (e - 1,) + b[j + 1:] in sm for j, e in enumerate(b) if e)]
    factored = [_block_factors(sizes, embedding) for sizes in blocks]
    return GroebnerBasis("downset", n, q, embedding, order, factored, sm, downset=downset)


def expanded_terms(kind: str, n: int, q: int, downset=()) -> int:
    """Terms of the expanded basis of a kind, counted without building it
    as if no coefficient vanished: an upper bound, exact for images 1..q
    over Q.  For a downset, the count before minimizing.

    A block with s_j factors in x_j expands to prod(s_j + 1) terms.  The
    block sizes of the full (strict) basis run over the compositions of q
    (q - n + 1) into n parts, which gives binom(size + 2n - 1, 2n - 1).  A
    downset basis adds one block per sequence g outside F, with sizes
    difference_vector(g); over all of I(n, q) those sum to binom(q + 2n - 1, 2n).
    """
    if n < 1 or q < 1:
        raise ValueError("n and q must be >= 1")
    if kind == "strict":
        return math.comb(q + n, 2 * n - 1) if q >= n else 0
    full = math.comb(q + 2 * n - 1, 2 * n - 1)
    if kind == "full":
        return full
    if kind != "downset":
        raise ValueError(f"unknown kind {kind!r}")
    inside = {tuple(g) for g in downset if len(g) == n and is_increasing(g, q)}
    return full + math.comb(q + 2 * n - 1, 2 * n) - sum(
        math.prod(d + 1 for d in difference_vector(g)) for g in inside)


def degree_bound(kind: str, n: int, q: int) -> int:
    """Top degree of the standard monomials: q-1 for the nondecreasing
    sequences (kind full), q-n for the strictly increasing ones (kind
    strict, which needs q >= n)."""
    if n < 1 or q < 1:
        raise ValueError("n and q must be >= 1")
    if kind == "full":
        return q - 1
    if kind == "strict":
        if q < n:
            raise ValueError(f"strict kind needs q >= n, got n={n}, q={q}")
        return q - n
    raise ValueError(f"unknown kind {kind!r}")


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


def nonvanishing_point(f: Polynomial, kind: str, n: int, q: int, embedding: Embedding):
    """A point of the embedded sequence set where f does not vanish
    (first in enumeration order), or None when f is the zero polynomial.

    Only applicable below the degree bound (q-1 nondecreasing, q-n
    strict), where a witness is guaranteed for nonzero f.
    """
    bound = degree_bound(kind, n, q)
    if f.is_zero:
        return None
    if f.degree() > bound:
        raise ValueError(f"degree {f.degree()} exceeds the bound {bound} for kind {kind!r}")
    _check_embedding(q, embedding)
    for seq in increasing_sequences(n, q, kind == "strict"):
        point = embedding.apply(seq)
        if not f.evaluate(point).is_zero:
            return point
    raise RuntimeError("no nonvanishing point found for a nonzero polynomial")  # unreachable
