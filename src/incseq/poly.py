"""Sparse multivariate polynomials over an exact field.

Monomials are exponent tuples of fixed width n.  Supports lex and deglex
term orders, evaluation, leading monomials, and deterministic
multi-divisor normal-form reduction.
"""

import heapq
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, combinations_with_replacement, count, pairwise, repeat
from math import lcm
from operator import itemgetter, mul, sub

from .field import Field, FieldElement


class TermOrder:
    """Total multiplicative monomial order with 1 minimal: lex or deglex."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("lex", "deglex"):
            raise ValueError(f"unknown term order {kind!r}")
        self.kind = kind

    def key(self, mono: tuple[int, ...]):
        """Sort key: larger key = larger monomial."""
        if self.kind == "lex":
            return mono
        return (sum(mono), mono)

    def __repr__(self):
        return self.kind


LEX = TermOrder("lex")
DEGLEX = TermOrder("deglex")


def parse_order(text: str) -> TermOrder:
    """LEX or DEGLEX itself, so orders compare by identity."""
    order = {"lex": LEX, "deglex": DEGLEX}.get(text.strip())
    if order is None:
        raise ValueError(f"unknown term order {text.strip()!r}")
    return order


def mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


@lru_cache(maxsize=1 << 14)
def mono_to_str(m: tuple[int, ...]) -> str:
    """`x1^2*x3` style, variables 1-indexed; the empty monomial is `1`.

    Cached, since a basis repeats few monomials over many terms: a full
    basis has at most the C(n+q, n) of degree <= q (126 over 724 terms
    for n=4, q=5 at GF(7) images 1..5).  The bound of 2^14 entries
    (about 5 MB at width 8) holds the 12,870 of `gb --n 8 --q 8`, whose
    3,922,512 exponents are near cli.EXPANSION_CAP; past it the least
    recently used text is dropped and built again when next asked for.
    """
    return "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(m) if e > 0) or "1"


def monomials_up_to_degree(n: int, d: int) -> list[tuple[int, ...]]:
    """All width-n exponent tuples of total degree <= d, in lex order: the
    difference vectors of the nondecreasing sequences over 0..d."""
    return [tuple(map(sub, s, (0,) + s[:-1])) for s in combinations_with_replacement(range(d + 1), n)]


class Polynomial:
    """Sparse polynomial: map from exponent tuple to nonzero coefficient.

    `terms` is never changed after construction, so the last leading
    monomial computed is kept in `_lm` as (order kind, monomial); the kind
    is None when the monomial leads under every order.  As a divisor of
    `reduce_by_basis` it keeps its packed form in `_packed`: ((order
    kind, digit width), packed leading monomial, inverse leading
    coefficient payload, [(packed tail monomial, payload)]), the last two
    None until a reduction divides by it.  `evaluate` keeps in `_plan`
    what it needs that does not depend on the point, built on its first
    call: the distinct prefixes of the monomials, each a shorter prefix
    times a power of one variable, so a value costs one multiplication
    per prefix, and each term's prefix and coefficient payload, over Q
    scaled to ints by their lcm and grouped by degree (_evaluation_plan).
    `__init__` and `_raw` start both empty, so `-g`, `g.scale(c)` and
    every other derived polynomial start afresh.
    """

    __slots__ = ("field", "n", "terms", "_lm", "_packed", "_plan")

    def __init__(self, field: Field, n: int, terms=None):
        self.field = field
        self.n = n
        clean = {}
        if terms:
            for m, c in terms.items():
                if len(m) != n:
                    raise ValueError(f"monomial width {len(m)} != {n}")
                if c.field is not field and c.field != field:
                    raise ValueError(f"coefficient {c!r} of {c.field!r} in a polynomial over {field!r}")
                if not c.is_zero:
                    clean[m] = c
        self.terms = clean
        self._lm = self._packed = self._plan = None

    @classmethod
    def _raw(cls, field, n, terms, lm=None) -> "Polynomial":
        """A polynomial on terms that are already clean: width-n monomials
        to nonzero elements of field.  lm is the `_lm` value, if known."""
        out = cls.__new__(cls)
        out.field, out.n, out.terms, out._lm, out._packed, out._plan = field, n, terms, lm, None, None
        return out

    @classmethod
    def zero(cls, field, n):
        return cls(field, n)

    @classmethod
    def constant(cls, field, n, value):
        c = field.element(value)
        return cls(field, n, {(0,) * n: c})

    @classmethod
    def one(cls, field, n):
        return cls.constant(field, n, 1)

    @classmethod
    def variable(cls, field, n, i):
        """x_{i+1} for 0-based position i."""
        if not 0 <= i < n:
            raise ValueError(f"variable position {i} out of range for n={n}")
        m = tuple(1 if j == i else 0 for j in range(n))
        return cls(field, n, {m: field.one})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("polynomials over different fields")
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            s = c if s is None else s + c
            if s.is_zero:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Polynomial._raw(self.field, self.n, terms)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial._raw(self.field, self.n, {m: -c for m, c in self.terms.items()}, self._lm)

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                c = ca * cb
                s = terms.get(m)
                s = c if s is None else s + c
                if s.is_zero:
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return Polynomial._raw(self.field, self.n, terms)

    def scale(self, c) -> "Polynomial":
        c = self.field.element(c)
        if c.is_zero:
            return Polynomial.zero(self.field, self.n)
        return Polynomial._raw(self.field, self.n, {m: t * c for m, t in self.terms.items()}, self._lm)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.terms == other.terms

    def evaluate(self, point) -> FieldElement:
        if len(point) != self.n:
            raise ValueError(f"point width {len(point)} != {self.n}")
        field = self.field
        for x in point:
            if not isinstance(x, FieldElement) or (x.field is not field and x.field != field):
                raise ValueError(f"coordinate {x!r} is not an element of {field!r}")
        if not self.terms:
            return field.zero
        if self._plan is None:
            self._plan = _evaluation_plan(self.terms, field.char == 0)
        steps, ix, coeffs, groups, L = self._plan
        ext = 0 < field.char != field.size  # GF(p^k): a payload does not multiply as an int
        fmul = field._mul if field.char else mul  # so a finite field's power rows stay reduced
        if field.char == 0:  # x_j = X_j / D with X_j an int, D the lcm of the denominators
            D = lcm(*(x.value.denominator for x in point))
            xs = [x.value.numerator * (D // x.value.denominator) for x in point]
        else:
            xs = [x.value for x in point]
        v = [1]  # v[i] = the i-th prefix's value; v[0] is the empty prefix
        for j, top, entries in steps:
            row = list(accumulate(repeat(xs[j], top), fmul, initial=1))
            if ext:
                v += [fmul(v[p], row[k]) if p else row[k] for p, k in entries]
            else:
                v += [v[p] * row[k] for p, k in entries]
        if field.char == 0:
            if D == 1:
                total, den = sum(map(mul, coeffs, map(v.__getitem__, ix))), L
            else:  # a term of degree e is c * X^m / D^e, so sum by degree, by Horner in D
                total = 0
                for cs, gix in groups:
                    total = total * D + sum(map(mul, cs, map(v.__getitem__, gix)))
                den = L * D ** (len(groups) - 1)
            whole, rest = divmod(total, den)
            return FieldElement(field, Fraction(total, den) if rest else whole)
        if not ext:  # GF(p), reduced once
            return FieldElement(field, sum(map(mul, coeffs, map(v.__getitem__, ix))) % field.char)
        return FieldElement(field, reduce(field._add, map(fmul, coeffs, map(v.__getitem__, ix))))

    def leading_monomial(self, order: TermOrder) -> tuple[int, ...]:
        known = self._lm
        if known is not None and known[0] in (None, order.kind):
            return known[1]
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        lm = max(self.terms, key=order.key)
        self._lm = (order.kind, lm)
        return lm

    def homogeneous_component(self, d: int) -> "Polynomial":
        return Polynomial(self.field, self.n, {m: c for m, c in self.terms.items() if sum(m) == d})

    def __repr__(self):
        return format_polynomial(self)

    __str__ = __repr__


def _evaluation_plan(terms, rational: bool):
    """A nonzero polynomial's `_plan`: (steps, ix, coeffs, groups, L).

    A prefix of m is (m_1..m_j, 0..0) with m_j > 0; prefix 0 is the empty
    one, and the others are numbered by the variable they end at, after
    their parents (the same prefix with m_j cleared).  steps has (j, top,
    [(parent, m_j)]) for each x_j that occurs in a term, in order, with
    top its largest exponent.  Term i is prefix ix[i] times the payload
    coeffs[i].  Over Q the terms go by degree, coeffs are scaled to ints
    by L, the lcm of their denominators, and groups[e] = (coeffs, ix) of
    the terms of degree e."""
    monos = sorted(terms, key=sum) if rational else list(terms)
    ix, steps, size = [0] * len(monos), [], 1
    for j, column in enumerate(zip(*monos)):
        if top := max(column):
            keys = list(zip(ix, column))  # (parent, m_j) of each term's prefix ending at x_j
            new = dict(zip(dict.fromkeys(filter(itemgetter(1), keys)), count(size)))
            ix = list(map(new.get, keys, ix))  # a term without x_j keeps its prefix
            steps.append((j, top, list(new)))
            size += len(new)
    payloads = [terms[m].value for m in monos]
    if not rational:
        return steps, ix, payloads, None, 1
    L = lcm(*(c.denominator for c in payloads))
    coeffs = [c.numerator * (L // c.denominator) for c in payloads]
    degrees = list(map(sum, monos))
    cuts = list(accumulate(map(degrees.count, range(degrees[-1] + 1)), initial=0))
    return steps, ix, coeffs, [(coeffs[a:b], ix[a:b]) for a, b in pairwise(cuts)], L


def format_polynomial(f: Polynomial, order: TermOrder = DEGLEX) -> str:
    """Term grammar: terms joined by ` + `/` - `, descending in the order."""
    if f.is_zero:
        return "0"
    field, terms = f.field, f.terms
    rational, one = field.char == 0, field.one.value
    monos = sorted(terms, reverse=True)
    if order.kind == "deglex":
        monos.sort(key=sum, reverse=True)  # stable: lex descending within a degree
    seen = {}  # payload -> (its signed text as a constant term, its signed prefix of a monomial)
    pieces = []
    for m in monos:
        e = terms[m]
        c = e.value
        known = seen.get(c)
        if known is None:
            if rational and c < 0:
                sign, e = " - ", FieldElement(field, -c)
            else:
                sign = " + "
            text = field.format_element(e)
            known = seen[c] = (sign + text, sign if e.value == one else f"{sign}{text}*")
        mono = mono_to_str(m)
        pieces.append(known[0] if mono == "1" else known[1] + mono)
    first = pieces[0]
    pieces[0] = ("-" if first[1] == "-" else "") + first[3:]
    return "".join(pieces)


def parse_polynomial(text: str, field: Field, n: int) -> Polynomial:
    """Parse the term grammar produced by format_polynomial."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial string")
    if text == "0":
        return Polynomial.zero(field, n)
    chunks = text.replace(" - ", " + -").split(" + ")
    terms = {}  # summed in one dict; the constructor drops what cancels
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        negate = False
        if chunk.startswith("-") and not chunk.startswith("-["):
            # leading sign on the term (the coefficient may still carry one)
            negate = True
            chunk = chunk[1:].strip()
        exps = [0] * n
        coeff = None
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor.startswith("x") and factor[1:2].isdigit():
                if "^" in factor:
                    var, exp = factor[1:].split("^", 1)
                    e = int(exp)
                else:
                    var, e = factor[1:], 1
                i = int(var)
                if not 1 <= i <= n:
                    raise ValueError(f"variable x{i} out of range 1..{n}")
                exps[i - 1] += e
            else:
                if coeff is not None:
                    raise ValueError(f"two coefficients in term {chunk!r}")
                coeff = field.parse_element(factor)
        c = field.one if coeff is None else coeff
        if negate:
            c = -c
        m = tuple(exps)
        terms[m] = terms[m] + c if m in terms else c
    return Polynomial(field, n, terms)


PACK_WIDTH = 16  # bits per packed exponent digit a reduction starts at


class _Overflow(Exception):
    """A packed monomial reached a digit's guard bit."""


def _packer(n: int, w: int, lex: bool):
    """Pack a width-n exponent tuple into one int: a w-bit digit per
    exponent, x1 most significant, and a total-degree digit above them
    (deglex) or below them (lex), so comparing ints is the term order.
    The top bit of every digit is a guard: a monomial whose degree, and
    so any exponent, would reach it raises _Overflow."""
    half = 1 << (w - 1)

    def pack(m):
        d = sum(m)
        if d >= half:
            raise _Overflow
        p = 0 if lex else d
        for e in m:
            p = p << w | e
        return p << w | d if lex else p

    return pack


def _packed_divisor(g: Polynomial, order: TermOrder, w: int, pack, tail: bool = False):
    """g's `_packed` entry for this order and width.  The inverse and the
    tail stay None until a reduction first divides by g (tail=True)."""
    key = (order.kind, w)
    kept = g._packed
    if kept is None or kept[0] != key:
        kept = g._packed = (key, pack(g.leading_monomial(order)), None, None)
    if tail and kept[3] is None:
        lm = g.leading_monomial(order)
        kept = g._packed = (key, kept[1], g.field._inv(g.terms[lm].value),
                            [(pack(t), c.value) for t, c in g.terms.items() if t != lm])
    return kept


def reduce_by_basis(f: Polynomial, basis, order: TermOrder) -> Polynomial:
    """Deterministic normal form of f modulo a list of divisors.

    The reducible monomial chosen at each step is the order-largest one
    divisible by some divisor's leading monomial; the divisor used is the
    first such in list order.  The remainder contains no monomial
    divisible by any divisor's leading monomial.

    Monomials are packed into ints (see _packer), starting at PACK_WIDTH
    bits per digit or at the widest width a divisor kept for this order;
    if an input or a product reaches a guard bit, the whole pass restarts
    at twice the width.  Each divisor keeps its packed form, so a basis
    reduced again is not packed again and starts at the width that fitted.
    """
    basis = list(basis)
    w = PACK_WIDTH
    for g in basis:
        if g.is_zero:
            raise ValueError("zero polynomial in reduction basis")
        f._check(g)
        if g._packed is not None and g._packed[0][0] == order.kind:
            w = max(w, g._packed[0][1])
    while True:
        try:
            return _reduce_packed(f, basis, order, w)
        except _Overflow:
            w *= 2


def _reduce_packed(f: Polynomial, basis, order: TermOrder, w: int) -> Polynomial:
    """One reduction pass at w bits per digit.

    One pass in descending order does it: subtracting a multiple of a
    divisor only changes monomials below the one it cancels, so the
    largest working term is always the next monomial to reduce or to
    move to the remainder.  With G the guard bits of every digit, lm
    divides m exactly when ((m | G) - lm) & G == G, and a sum of two
    packed monomials counts as an overflow when it sets a bit of G.
    """
    n, field = f.n, f.field
    lex = order.kind == "lex"
    pack = _packer(n, w, lex)
    guard = sum(1 << (k * w + w - 1) for k in range(n + 1))
    digit = (1 << w) - 1
    dshift = 0 if lex else n * w  # the degree digit is p >> dshift & digit
    divisors = [_packed_divisor(g, order, w, pack) for g in basis]
    # a leading monomial of the term's own degree divides it only by being
    # equal to it; lower ones are scanned in list order
    first = {}
    for i, kept in enumerate(divisors):
        first.setdefault(kept[1], i)
    distinct = [(i, plm >> dshift & digit, plm) for plm, i in first.items()]  # in list order
    below = {}
    fsub, fmul, fneg, zero = field._sub, field._mul, field._neg, field.zero.value
    work = {pack(m): c.value for m, c in f.terms.items()}
    heap = [-p for p in work]
    heapq.heapify(heap)
    remainder = []
    while heap:
        p = -heapq.heappop(heap)
        c = work.pop(p)
        if c == zero:
            continue
        degree = p >> dshift & digit
        lower = below.get(degree)
        if lower is None:
            lower = below[degree] = [(i, plm) for i, d, plm in distinct if d < degree]
        use = first.get(p)
        top = p | guard
        for i, plm in lower:
            if use is not None and i > use:
                break
            if (top - plm) & guard == guard:
                use = i
                break
        if use is None:
            remainder.append((p, c))
            continue
        kept = divisors[use]
        if kept[3] is None:
            kept = divisors[use] = _packed_divisor(basis[use], order, w, pack, tail=True)
        _, plm, lc_inv, tail = kept
        factor = fmul(c, lc_inv)
        shift = p - plm
        for tp, tc in tail:
            mm = tp + shift
            if mm & guard:
                raise _Overflow
            old = work.get(mm)
            if old is None:
                work[mm] = fneg(fmul(tc, factor))
                heapq.heappush(heap, -mm)
            else:
                work[mm] = fsub(old, fmul(tc, factor))
    shifts = [(n - 1 - j + lex) * w for j in range(n)]
    return Polynomial._raw(field, n, {tuple([p >> s & digit for s in shifts]): FieldElement(field, c)
                                      for p, c in remainder})
