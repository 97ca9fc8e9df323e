"""Increasing sequences, embeddings of [q] into a field, block size
vectors, difference vectors, and downset utilities.

A basis element is fixed by the sizes of its n blocks of consecutive
points of [q], which are also its leading exponent: a composition of q
(full), of q - n + 1 (strict, one point skipped between blocks), or
difference_vector(g) (the downset block for g)."""

import math
from itertools import combinations, combinations_with_replacement

from .field import Field, FieldElement

ENUMERATION_CAP = 10**7


class Embedding:
    """Injective order-preserving placement of [q] = {1..q} in a field.

    `images[j-1]` is the image of j.  A grid embedding maps j to a + j
    for a fixed offset a, which requires characteristic 0 or >= q.
    """

    __slots__ = ("q", "field", "images", "grid_offset")

    def __init__(self, field: Field, images):
        images = tuple(images)
        if not images:
            raise ValueError("embedding needs q >= 1 image points")
        if len(set(images)) != len(images):
            raise ValueError("embedding images must be pairwise distinct")
        self.field = field
        self.q = len(images)
        self.images = images
        self.grid_offset = self._detect_grid()

    def _detect_grid(self):
        one = self.field.one
        for a, b in zip(self.images, self.images[1:]):
            if b - a != one:
                return None
        return self.images[0] - one  # offset a with i(j) = a + j

    @classmethod
    def grid(cls, field: Field, q: int, offset=-1) -> "Embedding":
        if field.char != 0 and field.char < q:
            raise ValueError(f"grid embedding needs characteristic 0 or >= q={q}, got {field.char}")
        a = field.element(offset)
        return cls(field, [a + field.element(j) for j in range(1, q + 1)])

    @classmethod
    def from_elements(cls, field: Field, elements) -> "Embedding":
        return cls(field, [field.element(e) for e in elements])

    @classmethod
    def enumeration(cls, field: Field, q: int) -> "Embedding":
        """First q elements of a finite field in canonical order."""
        if field.size is None or field.size < q:
            raise ValueError(f"field {field!r} cannot embed [{q}]")
        return cls(field, field.elements()[:q])

    @classmethod
    def default(cls, field: Field, q: int) -> "Embedding":
        """The grid at offset -1 (images 0..q-1) when the characteristic
        is 0 or >= q, otherwise the first q elements."""
        if field.char == 0 or field.char >= q:
            return cls.grid(field, q, -1)
        return cls.enumeration(field, q)

    @property
    def is_grid(self) -> bool:
        return self.grid_offset is not None

    def apply(self, seq) -> tuple[FieldElement, ...]:
        """Componentwise image of a sequence with entries in [q]."""
        for v in seq:
            if not 1 <= v <= self.q:
                raise ValueError(f"entry {v} outside [1, {self.q}]")
        return tuple(self.images[v - 1] for v in seq)

    def __eq__(self, other):
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.field == other.field and self.images == other.images

    def __hash__(self):
        return hash((self.field, self.images))


def _check_embedding(q: int, embedding: Embedding):
    if embedding.q != q:
        raise ValueError(f"embedding covers [{embedding.q}], expected [{q}]")


def parse_embedding(text: str, field: Field, q: int) -> Embedding:
    """Parse `grid:<a>` or `list:<e1>,<e2>,...`."""
    text = text.strip()
    if text.startswith("grid:"):
        return Embedding.grid(field, q, field.parse_element(text[5:]))
    if text.startswith("list:"):
        body = text[5:]
        parts = _split_top_level(body)
        emb = Embedding.from_elements(field, [field.parse_element(s) for s in parts])
        if emb.q != q:
            raise ValueError(f"list embedding has {emb.q} entries, expected q={q}")
        return emb
    raise ValueError(f"bad embedding spec {text!r}: expected grid:<a> or list:<e1>,...")


def _data_lines(text: str):
    """The stripped lines of text, skipping blank and `#` comment lines."""
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested inside brackets (extension elements)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def increasing_sequences(n: int, q: int, strict: bool = False) -> list[tuple[int, ...]]:
    """All (strictly) nondecreasing length-n sequences over [q], lex order."""
    if count_increasing(n, q, strict) > ENUMERATION_CAP:
        raise ValueError(f"refusing to enumerate more than {ENUMERATION_CAP} sequences")
    return list((combinations if strict else combinations_with_replacement)(range(1, q + 1), n))


def count_increasing(n: int, q: int, strict: bool = False) -> int:
    if n < 1 or q < 1:
        raise ValueError("n and q must be >= 1")
    return math.comb(q, n) if strict else math.comb(n + q - 1, q - 1)


def is_increasing(seq, q: int, strict: bool = False) -> bool:
    if not seq or any(not 1 <= v <= q for v in seq):
        return False
    pairs = zip(seq, seq[1:])
    return all(a < b for a, b in pairs) if strict else all(a <= b for a, b in pairs)


def difference_vector(seq) -> tuple[int, ...]:
    """(f1 - 1, f2 - f1, ..., fn - f_{n-1}); bijects nondecreasing
    sequences over [q] onto exponent vectors of total degree <= q - 1."""
    out = [seq[0] - 1]
    for a, b in zip(seq, seq[1:]):
        out.append(b - a)
    return tuple(out)


def from_difference_vector(vec) -> tuple[int, ...]:
    """Inverse of difference_vector: cumulative sums plus one."""
    seq = []
    total = 1
    for v in vec:
        if v < 0:
            raise ValueError("difference vector entries must be nonnegative")
        total += v
        seq.append(total)
    return tuple(seq)


def compositions(total: int, parts: int):
    """The size vectors of `parts` consecutive blocks, some possibly
    empty, that hold `total` points, in lex order.  They are the exponent
    vectors of degree `total` in `parts` variables."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def is_downset(points, n: int, q: int) -> bool:
    """True iff the set is closed downward in I(n,q) under the
    componentwise order.

    It suffices that each point's immediate predecessors are in the set:
    the point with one entry lowered by 1 that is still nondecreasing and
    >= 1.  Any u <= v in I(n,q) is reached from v by such steps, each
    lowering the first entry where the two differ."""
    pts = set(points)
    for v in pts:
        if not is_increasing(v, q) or len(v) != n:
            raise ValueError(f"{v} is not a valid nondecreasing sequence over [{q}]")
    for v in pts:
        for j, a in enumerate(v):
            if a > (v[j - 1] if j else 1) and v[:j] + (a - 1,) + v[j + 1:] not in pts:
                return False
    return True


def all_downsets(n: int, q: int, include_empty: bool = False):
    """Every downset of I(n,q), by subset filtering (tiny n, q only)."""
    universe = increasing_sequences(n, q)
    if len(universe) > 20:
        raise ValueError("downset enumeration is limited to |I(n,q)| <= 20")
    out = []
    for mask in range(len(universe) and 2 ** len(universe)):
        subset = frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1)
        if not subset and not include_empty:
            continue
        if is_downset(subset, n, q):
            out.append(subset)
    return out
