"""Independent checks: small brute-force helpers written without the
incseq routines they check (term orders, evaluation, lines, closed-form
counts).  Field arithmetic comes from the elements themselves."""

import itertools
import math


def order_key(kind):
    if kind == "lex":
        return lambda m: m
    return lambda m: (sum(m), m)


def leading(terms, kind):
    return max(terms, key=order_key(kind))


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def evaluate(terms, point, field):
    """sum c * prod x_i^e_i, one monomial at a time."""
    total = field.zero
    for mono, c in terms.items():
        value = c
        for x, e in zip(point, mono):
            for _ in range(e):
                value = value * x
        total = total + value
    return total


def degree(terms):
    return max((sum(m) for m in terms), default=-1)


def sequences(n, q, strict=False):
    if strict:
        return list(itertools.combinations(range(1, q + 1), n))
    return list(itertools.combinations_with_replacement(range(1, q + 1), n))


def images(seq, emb):
    return tuple(emb.images[v - 1] for v in seq)


def monomials_upto(n, d):
    return {m for m in itertools.product(range(d + 1), repeat=n) if sum(m) <= d}


def difference_vector(seq):
    return (seq[0] - 1,) + tuple(b - a for a, b in zip(seq, seq[1:]))


def good_count(n, q):
    """Compositions of q into n ordered, possibly empty, blocks."""
    return math.comb(q + n - 1, n - 1)


def canonical(v):
    """Scale so the first nonzero coordinate is 1; None for zero."""
    for x in v:
        if not x.is_zero:
            inv = x.inverse()
            return tuple(y * inv for y in v)
    return None


def line(base, direction, elements):
    return {tuple(b + t * d for b, d in zip(base, direction)) for t in elements}


def embedded_directions(n, q, emb):
    out = set()
    for seq in sequences(n, q):
        c = canonical(images(seq, emb))
        if c is not None:
            out.add(c)
    return out


def max_line_hit(points, direction, field, n):
    """Largest |line & points| over all lines in `direction`."""
    elements = field.elements()
    best = 0
    for base in itertools.product(elements, repeat=n):
        best = max(best, len(line(base, direction, elements) & points))
    return best


def has_full_line(points, direction, field, n):
    elements = field.elements()
    return any(line(base, direction, elements) <= points
               for base in itertools.product(elements, repeat=n))


def dot(a, b, field):
    total = field.zero
    for x, y in zip(a, b):
        total = total + x * y
    return total
