"""Lines, increasing Kakeya and Nikodym sets, hyperplane covers, and the
polynomial-method bound verifiers over finite fields.

Point sets live in F^n for a finite field F of exactly q elements
(Kakeya/Nikodym) or size >= q (covers); points are tuples of field
elements.  Directions and hyperplane normals are canonicalized so the
first nonzero coordinate is 1.

The searches, verifiers and constructions run in index form: a finite
field's payloads are its element indices (element i is
`field.elements()[i]`), a point is a tuple of them, and field arithmetic
is a lookup in the q x q tables of `Field.tables()`, kept on the field and
shared with the oracle.  Points are unwrapped to payloads once on entry
and wrapped back into field elements once on return.  Only `Hyperplane` and
`canonical_direction` work on field elements, since `cover_verify` also
runs over Q.
"""

import itertools
import math
from functools import reduce
from operator import getitem, or_

from .combinatorics import (Embedding, _data_lines, _split_top_level, count_increasing, increasing_sequences,
                            is_increasing)
from .field import Field, FieldElement, Tables, field_from_string
from .oracle import vanishing_polynomial
from .poly import DEGLEX

COVER_PLANE_CAP = 10**3
LINE_UNION_CAP = 10**6
VERIFY_WORK_CAP = 10**7  # points a CLI `kakeya verify` or `nikodym verify` may test, or `build-t` build


class InconsistencyError(RuntimeError):
    """A computation contradicted a proved bound; indicates a bug."""


class CertificateError(ValueError):
    """A supplied certificate failed re-verification."""


class PointSet:
    """Deduplicated finite subset of F^n."""

    __slots__ = ("field", "n", "points")

    def __init__(self, field: Field, n: int, points):
        pts = frozenset(tuple(p) for p in points)
        for p in pts:
            if len(p) != n:
                raise ValueError(f"point {p} has width {len(p)}, expected {n}")
        self.field = field
        self.n = n
        self.points = pts

    def __len__(self):
        return len(self.points)

    def sorted_points(self):
        return sorted(self.points, key=self.field.tables().ix)


def parse_points(text: str, field: Field, n: int) -> PointSet:
    """One point per line, comma-separated canonical element strings."""
    points = []
    for line in _data_lines(text):
        parts = _split_top_level(line)
        if len(parts) != n:
            raise ValueError(f"point {line!r} has {len(parts)} coordinates, expected {n}")
        points.append(tuple(field.parse_element(s) for s in parts))
    return PointSet(field, n, points)


def format_points(ps: PointSet) -> str:
    return "\n".join(",".join(ps.field.format_element(x) for x in p) for p in ps.sorted_points())


def format_point(p) -> str:
    return ",".join(x.field.format_element(x) for x in p)


def canonical_direction(v):
    """Scale so the first nonzero coordinate is 1; rejects the zero vector."""
    pivot = next((i for i, x in enumerate(v) if not x.is_zero), None)
    if pivot is None:
        raise ValueError("zero vector has no direction")
    inv = v[pivot].inverse()
    return pivot, tuple(x * inv for x in v)


def _canonical(tab: Tables, v):
    """canonical_direction on an index tuple."""
    pivot = next((i for i, x in enumerate(v) if x != tab.zero), None)
    if pivot is None:
        raise ValueError("zero vector has no direction")
    row = tab.mul[tab.inv[v[pivot]]]
    return pivot, tuple(row[x] for x in v)


def _multiples(tab: Tables, v, ts) -> list:
    """t*v for each index t in ts."""
    mul = tab.mul
    return [tuple(mul[t][x] for x in v) for t in ts]


def _directions(tab: Tables, n: int) -> list:
    """Every canonical nonzero index direction of F^n: pivot-major, the
    coordinates after the pivot in element order."""
    return [(tab.zero,) * pivot + (tab.one,) + tail for pivot in range(n)
            for tail in itertools.product(range(len(tab.elements)), repeat=n - pivot - 1)]


def _transversal(tab: Tables, n: int, pivot: int):
    """Every index point with coordinate `pivot` zero, in product order:
    one base per line in a direction with that pivot."""
    axes = [range(len(tab.elements))] * n
    axes[pivot] = (tab.zero,)
    return itertools.product(*axes)


class Hyperplane:
    """{x : normal . x = offset}, with normal and offset scaled so the
    first nonzero normal coordinate is 1."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset: FieldElement):
        pivot, self.normal = canonical_direction(normal)
        self.offset = offset / normal[pivot]

    def contains(self, point) -> bool:
        total = self.normal[0].field.zero
        for a, x in zip(self.normal, point):
            if not a.is_zero:
                total = total + a * x
        return total == self.offset

    def __eq__(self, other):
        if not isinstance(other, Hyperplane):
            return NotImplemented
        return (self.normal, self.offset) == (other.normal, other.offset)

    def __hash__(self):
        return hash((self.normal, self.offset))

    def __repr__(self):
        return f"Hyperplane({self.normal} . x = {self.offset})"


def format_hyperplane(h: Hyperplane) -> str:
    f = h.offset.field
    return ",".join(f.format_element(x) for x in h.normal) + ";" + f.format_element(h.offset)


def parse_hyperplanes(text: str, field: Field, n: int) -> list[Hyperplane]:
    """One per line: `<n1>,...,<nn>;<offset>`."""
    planes = []
    for line in _data_lines(text):
        if ";" not in line:
            raise ValueError(f"hyperplane {line!r} needs `normal;offset`")
        left, right = line.rsplit(";", 1)
        normal = [field.parse_element(s) for s in _split_top_level(left)]
        if len(normal) != n:
            raise ValueError(f"hyperplane {line!r} has {len(normal)} normal coordinates, expected {n}")
        planes.append(Hyperplane(tuple(normal), field.parse_element(right)))
    return planes


def _require_ambient(field: Field, q: int):
    if field.size != q:
        raise ValueError(f"ambient field must have exactly q={q} elements, got size {field.size}")


def _increasing_directions(tab: Tables, n: int, q: int, emb: Embedding) -> list:
    """Canonical representatives of the nonzero embedded nondecreasing
    directions, in first-occurrence enumeration order."""
    images = tab.ix(emb.apply(range(1, q + 1)))
    seen = set()
    out = []
    for seq in increasing_sequences(n, q):
        v = tuple(images[s - 1] for s in seq)
        if all(x == tab.zero for x in v):
            continue
        _, canon = _canonical(tab, v)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def _translates(tab: Tables, z, steps) -> list:
    """z + s for each index offset s in steps: a line's points when steps
    are every multiple of its direction, a punctured line's when the
    multiple zero is left out."""
    rows = [tab.add[a] for a in z]
    return [tuple(map(getitem, rows, step)) for step in steps]


def _lines(tab: Tables, n: int, v):
    """(base, points) of every line in the canonical index direction v,
    one per transversal base, in transversal order; points is a list of
    the line's q index points."""
    pivot = v.index(tab.one)
    steps = _multiples(tab, v, range(len(tab.elements)))
    for base in _transversal(tab, n, pivot):
        yield base, _translates(tab, base, steps)


def line_star(n: int, q: int, field: Field, emb: Embedding) -> PointSet:
    """Union of the lines through the origin in every nonzero embedded
    nondecreasing direction."""
    _require_ambient(field, q)
    if emb.field != field:
        raise ValueError("embedding field differs from the ambient field")
    tab = field.tables()
    points = {(tab.zero,) * n}
    for v in _increasing_directions(tab, n, q, emb):
        points.update(_multiples(tab, v, range(q)))
    return PointSet(field, n, map(tab.el, points))


def line_star_size_bound(n: int, q: int) -> int:
    return (q - 1) * (math.comb(q + n - 1, n) - (q - 1)) + 1


class KakeyaCertificate:
    """Per-direction witness lines (direction -> base point), or, when
    `direction` is set, the first direction with no line meeting the set
    at the threshold (and no entries)."""

    __slots__ = ("threshold", "entries", "direction", "ok")

    def __init__(self, threshold: int, entries, direction=None):
        self.threshold = threshold
        self.entries = tuple(entries)
        self.direction = direction
        self.ok = direction is None


def verify_kakeya(K: PointSet, emb: Embedding, threshold: int):
    """For every canonical nonzero embedded nondecreasing direction, find
    a line meeting K in at least `threshold` points (threshold = q means
    full containment), scanning one base per line."""
    q = emb.q
    _require_ambient(K.field, q)
    if not 1 <= threshold <= q:
        raise ValueError(f"threshold must be in [1, {q}]")
    tab = K.field.tables()
    points = set(map(tab.ix, K.points))
    entries = []
    for v in _increasing_directions(tab, K.n, q, emb):
        found = next((base for base, line in _lines(tab, K.n, v)
                      if sum(p in points for p in line) >= threshold), None)
        if found is None:
            return KakeyaCertificate(threshold, (), tab.el(v))
        entries.append((tab.el(v), tab.el(found)))
    return KakeyaCertificate(threshold, entries)


def verify_work(kind: str, n: int, q: int) -> int:
    """An upper bound on the points `verify_kakeya` (kind "kakeya") or
    `verify_nikodym` (kind "nikodym") tests against a set in F^n, |F| = q,
    counted without enumerating anything.  Kakeya: at most
    count_increasing(n, q) directions, q^(n-1) lines each, q points a
    line.  Nikodym: for each of the count_increasing(n, q) embedded
    points, all (q^n - 1)/(q - 1) canonical directions, q - 1 punctured
    points each."""
    return count_increasing(n, q) * (q**n if kind == "kakeya" else q**n - 1)


class NikodymCertificate:
    """Per-point witness directions (embedded point -> direction whose
    punctured line through the point stays inside the set), or, when
    `point` is set, the first point with no such direction (and no
    entries)."""

    __slots__ = ("entries", "point", "ok")

    def __init__(self, entries, point=None):
        self.entries = tuple(entries)
        self.point = point
        self.ok = point is None


def verify_nikodym(B: PointSet, emb: Embedding):
    """For each embedded nondecreasing point z, find a direction v with
    the punctured line {z + tv : t != 0} inside B."""
    q = emb.q
    _require_ambient(B.field, q)
    tab = B.field.tables()
    points = set(map(tab.ix, B.points))
    nonzero_ts = [t for t in range(q) if t != tab.zero]
    # each direction's offsets t*v, computed once for every point
    directions = [(v, _multiples(tab, v, nonzero_ts)) for v in _directions(tab, B.n)]
    images = tab.ix(emb.apply(range(1, q + 1)))
    entries = []
    for seq in increasing_sequences(B.n, q):
        z = tuple(images[s - 1] for s in seq)
        rows = [tab.add[a] for a in z]
        found = next((v for v, steps in directions
                      if all(tuple(map(getitem, rows, step)) in points for step in steps)), None)
        if found is None:
            return NikodymCertificate((), tab.el(z))
        entries.append((tab.el(z), tab.el(found)))
    return NikodymCertificate(entries)


class BoundPass:
    __slots__ = ("size", "bound")
    ok = True

    def __init__(self, size: int, bound: int):
        if size < bound:
            raise InconsistencyError(f"size {size} below the proved bound {bound}")
        self.size = size
        self.bound = bound


class KakeyaBoundCounterexample:
    """Evidence that a too-small set cannot satisfy the line condition:
    a vanishing polynomial whose top part is nonzero at some direction,
    which therefore has no rich line."""

    __slots__ = ("size", "bound", "poly", "witness_direction", "chain_verified")
    ok = False

    def __init__(self, size, bound, poly, witness_direction, chain_verified):
        self.size = size
        self.bound = bound
        self.poly = poly
        self.witness_direction = witness_direction
        self.chain_verified = chain_verified


def kakeya_lower_bound_check(K: PointSet, directions_set: PointSet, ell: int):
    """Dvir-style dimension bound for sets rich in the directions of a
    set whose standard monomials contain everything of degree <= ell.

    If |K| >= binom(n+ell, n) the bound passes.  Otherwise a nonzero
    polynomial of degree <= ell vanishing on K exists; its top-degree
    homogeneous part cannot vanish on all the directions, and any
    direction where it is nonzero provably has no line meeting K in
    ell+1 points -- that witness is returned after re-verification.
    """
    field, n = K.field, K.n
    q = field.size
    if q is None:
        raise ValueError("bound check needs a finite ambient field")
    if not 0 < ell <= q - 1:
        raise ValueError(f"ell must be in (0, {q - 1}]")
    # under deglex a monomial of degree <= ell is non-standard exactly when
    # it leads a vanishing polynomial of degree <= ell
    if vanishing_polynomial(directions_set.sorted_points(), ell, DEGLEX, field, n) is not None:
        raise ValueError("direction set does not dominate the degree-<= ell monomials")
    bound = math.comb(n + ell, n)
    if len(K) >= bound:
        return BoundPass(len(K), bound)
    poly = vanishing_polynomial(K.sorted_points(), ell, field=field, n=n)
    if poly is None:
        raise InconsistencyError("no vanishing polynomial despite |K| < column count")
    top = poly.homogeneous_component(poly.degree())
    tab = field.tables()
    points = set(map(tab.ix, K.points))
    witness = None
    chain_ok = True
    for v in directions_set.sorted_points():
        if all(x.is_zero for x in v):
            continue
        _, canon = _canonical(tab, tab.ix(v))
        rich = any(sum(p in points for p in line) > ell for _, line in _lines(tab, n, canon))
        top_zero = top.evaluate(v).is_zero
        if rich and not top_zero:
            chain_ok = False  # cannot happen with exact arithmetic
        if not top_zero and witness is None:
            witness = v
    if witness is None:
        raise InconsistencyError("top-degree part vanished on every direction despite the monomial condition")
    return KakeyaBoundCounterexample(len(K), bound, poly, witness, chain_ok)


class NikodymContradictionTrace:
    """Proof chain for an impossible input: a nonzero low-degree
    polynomial forced to vanish on every embedded nondecreasing point."""

    __slots__ = ("size", "bound", "poly", "extended_zeros")
    ok = False

    def __init__(self, size, bound, poly, extended_zeros):
        self.size = size
        self.bound = bound
        self.poly = poly
        self.extended_zeros = tuple(extended_zeros)


def nikodym_bound_check(B: PointSet, emb: Embedding, cert=None):
    """Size bound binom(n+q-2, n) for certified increasing Nikodym sets.

    Verification failures raise; a certified set below the bound is
    mathematically impossible, and the proof chain is replayed to emit
    the contradiction trace (any break in the chain means the
    certificate was bad).  `cert` is verify_nikodym(B, emb) when the
    caller has it already; by default it is computed here."""
    if cert is None:
        cert = verify_nikodym(B, emb)
    if not cert.ok:
        raise CertificateError(f"not an increasing Nikodym set: no punctured line through {cert.point}")
    n, q = B.n, emb.q
    bound = math.comb(n + q - 2, n)
    if len(B) >= bound:
        return BoundPass(len(B), bound)
    return _nikodym_chain(B, emb, cert, bound)


def _nikodym_chain(B: PointSet, emb: Embedding, cert, bound: int):
    n, q = B.n, emb.q
    poly = vanishing_polynomial(B.sorted_points(), q - 2, field=B.field, n=n)
    if poly is None:
        raise InconsistencyError("no vanishing polynomial despite |B| < column count")
    tab = B.field.tables()
    nonzero_ts = [t for t in range(q) if t != tab.zero]
    zeros = []
    for z, v in cert.entries:
        _, v = _canonical(tab, tab.ix(v))  # rejects a zero direction
        punctured = [tab.el(p) for p in _translates(tab, tab.ix(z), _multiples(tab, v, nonzero_ts))]
        if not all(p in B.points for p in punctured):
            raise CertificateError(f"certificate line through {z} leaves the set")
        if not all(poly.evaluate(p).is_zero for p in punctured):
            raise CertificateError("vanishing polynomial fails on a certified punctured line")
        if not poly.evaluate(z).is_zero:
            # deg <= q-2 with q-1 roots on the line forces this; failure
            # means the arithmetic or certificate is broken
            raise CertificateError(f"degree argument failed to extend vanishing to {z}")
        zeros.append(z)
    # poly now vanishes on every embedded nondecreasing point, which a
    # nonzero polynomial of degree <= q-1 cannot do
    return NikodymContradictionTrace(len(B), bound, poly, zeros)


class CoverResult:
    __slots__ = ("ok", "uncovered_point", "size", "bound")

    def __init__(self, ok, uncovered_point, size, bound):
        self.ok = ok
        self.uncovered_point = uncovered_point
        self.size = size
        self.bound = bound


def _cover_targets(n: int, q: int, emb: Embedding, excluded):
    """The distinct embedded nondecreasing points outside the excluded
    sequences (at most n of them), in enumeration order, and the proved
    lower bound on the size of a cover of them."""
    excluded = [tuple(s) for s in excluded]
    if len(excluded) > n:
        raise ValueError(f"at most n={n} excluded points allowed, got {len(excluded)}")
    for s in excluded:
        if len(s) != n or not is_increasing(s, q):
            raise ValueError(f"excluded sequence {','.join(map(str, s))} is not a nondecreasing "
                             f"sequence of length {n} over 1..{q}")
    excluded_pts = {emb.apply(s) for s in excluded}
    targets = dict.fromkeys(p for p in map(emb.apply, increasing_sequences(n, q)) if p not in excluded_pts)
    return list(targets), q - 1 if excluded else q


def cover_verify(planes, n: int, q: int, emb: Embedding, excluded=()) -> CoverResult:
    """Check the planes cover every embedded nondecreasing point outside
    the excluded sequences (at most n of them), and assert the proved
    size bound when they do."""
    targets, bound = _cover_targets(n, q, emb, excluded)
    distinct = list(dict.fromkeys(planes))
    for p in targets:
        if not any(h.contains(p) for h in distinct):
            return CoverResult(False, p, len(distinct), None)
    if len(distinct) < bound:
        raise InconsistencyError(f"cover of size {len(distinct)} beats the proved bound {bound}")
    return CoverResult(True, None, len(distinct), bound)


def canonical_hyperplanes(field: Field, n: int) -> list[Hyperplane]:
    tab = field.tables()
    return [Hyperplane(tab.el(v), off) for v in _directions(tab, n) for off in tab.elements]


class CoverSearchResult:
    __slots__ = ("minimum", "witness", "bound")

    def __init__(self, minimum, witness, bound):
        self.minimum = minimum
        self.witness = tuple(witness)
        self.bound = bound


def cover_search(n: int, q: int, field: Field, emb: Embedding, excluded=()) -> CoverSearchResult:
    """Exact minimum number of affine hyperplanes covering the embedded
    nondecreasing points minus the excluded ones.

    Candidates are the canonical hyperplanes, listed direction-major with
    offsets in element order; the answer is found by iterative deepening
    over the cover size up to a greedy upper bound, searching
    index-ascending subsets so the first hit is the lexicographically
    least witness.  Coverage masks are bitsets.

    k planes covering the targets multiply out to a nonzero polynomial of
    degree k vanishing on them, so when the oracle finds no vanishing
    polynomial of degree < bound, no cover smaller than the bound exists
    and the deepening starts at the bound; otherwise it starts at 1.
    """
    size = field.size
    if size is None:
        raise ValueError("cannot enumerate an infinite field")
    count = (size**n - 1) // (size - 1) * size  # canonical directions times offsets
    # checked before the targets are listed: with size >= q there are at
    # most binom(n+q-1, n) <= q^n <= count of them
    if count > COVER_PLANE_CAP:
        raise ValueError(f"hyperplane count {count} exceeds the cap {COVER_PLANE_CAP}")
    targets, bound = _cover_targets(n, q, emb, excluded)
    tab = field.tables()
    directions = _directions(tab, n)
    # the plane through p with normal v is number d*size + v.p, v = directions[d]
    add, mul = tab.add, tab.mul
    masks = [0] * count
    for j, p in enumerate(map(tab.ix, targets)):
        for d, v in enumerate(directions):
            dot = tab.zero
            for a, x in zip(v, p):
                dot = add[dot][mul[a][x]]
            masks[d * size + dot] |= 1 << j

    def plane(i):
        return Hyperplane(tab.el(directions[i // size]), tab.elements[i % size])

    if not targets:
        return CoverSearchResult(0, [], bound)
    full = (1 << len(targets)) - 1

    # greedy upper bound
    uncovered = full
    greedy = []
    while uncovered:
        best = max(range(count), key=lambda i: ((masks[i] & uncovered).bit_count(), -i))
        if not masks[best] & uncovered:
            return CoverSearchResult(None, [], None)  # uncoverable: some point on no plane
        greedy.append(best)
        uncovered &= ~masks[best]

    # dead[i]: the targets that no plane of index >= i covers
    dead = [full] * (count + 1)
    for i in range(count - 1, -1, -1):
        dead[i] = dead[i + 1] & ~masks[i]

    def dfs(start: int, uncovered: int, slots: int, picks: list):
        if not uncovered:
            return list(picks)
        if slots == 0 or uncovered & dead[start]:
            return None
        # the `slots` planes of largest gain cover at most this many new points
        gains = sorted([(m & uncovered).bit_count() for m in masks[start:]], reverse=True)
        if sum(gains[:slots]) < uncovered.bit_count():
            return None
        for i in range(start, count):
            if uncovered & dead[i]:
                break  # dead only grows with i: no later child covers it either
            if masks[i] & uncovered:
                picks.append(i)
                got = dfs(i + 1, uncovered & ~masks[i], slots - 1, picks)
                if got is not None:
                    return got
                picks.pop()
        return None

    first = bound if vanishing_polynomial(targets, bound - 1) is None else 1
    if first > len(greedy):
        raise InconsistencyError(f"greedy cover of size {len(greedy)} beats the proved bound {bound}")
    for k in range(first, len(greedy) + 1):
        got = dfs(0, full, k, [])
        if got is not None:
            return CoverSearchResult(k, map(plane, got), bound)
    return CoverSearchResult(len(greedy), map(plane, greedy), bound)


def optimal_kakeya_f3() -> PointSet:
    """The known optimal 10-point increasing Kakeya set in F_3^3: six
    plane points plus three lines through (1,1,2)."""
    field = field_from_string("gf:3")
    tab = field.tables()  # GF(3)'s element indices are its values
    points = {(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 2), (0, 2, 0), (0, 2, 1)}
    for anchor, direction in [((0, 0, 1), (1, 1, 1)),
                              ((0, 0, 0), (1, 1, 2)),
                              ((0, 2, 0), (1, 2, 2))]:
        points.update(_translates(tab, anchor, _multiples(tab, direction, range(3))))
    return PointSet(field, 3, map(tab.el, points))


def kakeya_line_union_search(n: int, q: int, field: Field, emb: Embedding):
    """Smallest union of one full line per canonical nondecreasing
    direction (how small constructions are assembled); returns
    (size, PointSet) with the first minimal union in scan order."""
    _require_ambient(field, q)
    tab = field.tables()
    directions = _increasing_directions(tab, n, q, emb)
    if q ** ((n - 1) * len(directions)) > LINE_UNION_CAP:
        raise ValueError(f"line-union search space exceeds {LINE_UNION_CAP}")
    # lines and unions are bitsets over the points of F^n
    bit = {p: 1 << i for i, p in enumerate(itertools.product(range(q), repeat=n))}
    per_direction = [[sum(bit[p] for p in line) for _, line in _lines(tab, n, v)] for v in directions]
    best = None
    for choice in itertools.product(*per_direction):
        union = reduce(or_, choice, 0)
        if best is None or union.bit_count() < best.bit_count():
            best = union
    return best.bit_count(), PointSet(field, n, [tab.el(p) for p, b in bit.items() if best & b])
