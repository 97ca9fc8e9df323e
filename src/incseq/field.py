"""Exact coefficient fields.

Three kinds behind one interface: prime fields GF(p), small extension
fields GF(p^k) with table-based arithmetic, and arbitrary-precision
rationals.  All arithmetic is exact; elements are immutable.

A finite field's payload is its element index: the int i in range(q)
with `elements()[i].value == i`.  For GF(p) that is the residue; for
GF(p^k) it is the int whose base-p digits are the element's
coefficients, constant term least significant.
"""

from fractions import Fraction
from operator import mul

EXTENSION_SIZE_CAP = 1 << 16
TABLE_SIZE_CAP = 1 << 10  # largest finite field given q x q tables (`Field.tables()`)

# Built-in moduli (Conway polynomials), coefficients from the constant
# term up, monic.
_BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),      # y^2 + y + 1
    (2, 3): (1, 1, 0, 1),   # y^3 + y + 1
    (3, 2): (2, 2, 1),      # y^2 + 2y + 2
}


def _exact_int(value, field) -> int:
    """An int or integral Fraction as an int; a float, or a Fraction with a
    denominator, has no exact image in a finite field."""
    if isinstance(value, float) or (isinstance(value, Fraction) and value.denominator != 1):
        raise ValueError(f"{value!r} is not exactly an element of {field!r}")
    return int(value)


def _integral(x: Fraction):
    """The canonical rational payload: x as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def smallest_prime_geq(q: int) -> int:
    p = max(q, 2)
    while not is_prime(p):
        p += 1
    return p


def _polymod(a: list[int], m: tuple[int, ...], p: int) -> list[int]:
    """Reduce a dense GF(p)[y] polynomial (ascending coeffs) mod monic m."""
    a = [c % p for c in a]
    k = len(m) - 1
    while len(a) > k:
        lead = a.pop()
        if lead:
            for i in range(k):
                a[len(a) - k + i] = (a[len(a) - k + i] - lead * m[i]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymul_mod(a: list[int], b: list[int], m: tuple[int, ...], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    return _polymod(prod, m, p)


def _digits(n: int, p: int, k: int) -> list[int]:
    """The k base-p digits of n, least significant first."""
    return [n // p**j % p for j in range(k)]


def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Exhaustive divisor test: no monic factor of degree 1..k//2."""
    k = len(modulus) - 1
    if k < 1 or modulus[-1] != 1:
        return False
    for d in range(1, k // 2 + 1):
        for enc in range(p**d):
            if not _polymod(list(modulus), tuple(_digits(enc, p, d) + [1]), p):
                return False
    return True


def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Built-in modulus, or the first irreducible in a deterministic scan."""
    if (p, k) in _BUILTIN_MODULI:
        return _BUILTIN_MODULI[(p, k)]
    for enc in range(p**k):
        # scan high-degree coefficients as most significant
        cand = tuple(reversed(_digits(enc, p, k))) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


class FieldElement:
    """Immutable element of a Field; payload is canonical for its kind."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements from different fields")
            return other
        if isinstance(other, int) or (isinstance(other, Fraction) and self.field.char == 0):
            return self.field.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(self.value, o.value))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.value, o.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.value, self.field._inv(o.value)))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv(self.value))

    @property
    def is_zero(self) -> bool:
        return self.value == self.field.zero.value

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.field is other.field or self.field == other.field) and self.value == other.value
        if isinstance(other, (int, Fraction, float)):
            # coercing would break hashing: GF(7)'s 3 would equal both 3 and 10
            raise TypeError(f"comparing {self!r} of {self.field!r} with the "
                            f"{type(other).__name__} {other!r}; compare with field.element({other!r})")
        return NotImplemented

    def __hash__(self):
        return hash((self.field._hash, self.value))

    def __repr__(self):
        return self.field.format_element(self)

    __str__ = __repr__


class Field:
    """Field handle: exact arithmetic, canonical element forms, printing.
    Constructors set `key`, a tuple naming the field, and `_hash =
    hash(key)`, read by element hashes; equal keys are equal fields."""

    key: tuple
    char: int
    size: int | None  # None = infinite

    def element(self, value) -> FieldElement:
        return FieldElement(self, self._canon(value))

    def elements(self) -> list[FieldElement]:
        """All field elements exactly once, in canonical order."""
        raise ValueError("cannot enumerate an infinite field")

    _tables = None

    def tables(self) -> "Tables":
        """The field's q x q tables, built on first use and kept on the
        field (so once per interned field); ValueError for an infinite
        field or one of more than TABLE_SIZE_CAP elements."""
        if self._tables is None:
            self._tables = Tables(self)
        return self._tables

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash


class Tables:
    """A finite field's add, mul, neg and inv tabulated on its payloads,
    which are its element indices range(q) (inv[0] is None); element i
    is `elements[i]`."""

    __slots__ = ("field", "elements", "zero", "one", "add", "mul", "neg", "inv")

    def __init__(self, field: Field):
        if field.size is not None and field.size > TABLE_SIZE_CAP:
            raise ValueError(f"{field!r} has {field.size} elements, above the cap "
                             f"{TABLE_SIZE_CAP} for q x q tables")
        self.field = field
        self.elements = field.elements()  # ValueError for an infinite field
        self.zero, self.one = field.zero.value, field.one.value
        r = range(len(self.elements))
        fadd, fmul = field._add, field._mul
        self.add = [[fadd(a, b) for b in r] for a in r]
        self.mul = [[fmul(a, b) for b in r] for a in r]
        self.neg = [field._neg(a) for a in r]
        self.inv = [None] + [field._inv(a) for a in r[1:]]

    def ix(self, p) -> tuple:
        """The index tuple of a point over this field."""
        field = self.field
        if any(x.field is not field and x.field != field for x in p):
            raise ValueError(f"point {p} is not over {field!r}")
        return tuple(x.value for x in p)

    def el(self, p) -> tuple:
        """The field-element tuple of an index tuple."""
        return tuple(self.elements[i] for i in p)


class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.key = ("prime", p)
        self._hash = hash(self.key)
        self.p = p
        self.char = p
        self.size = p
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)

    def _canon(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element from a different field")
            return value.value
        return _exact_int(value, self) % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return [FieldElement(self, i) for i in range(self.p)]

    def format_element(self, x: FieldElement) -> str:
        return str(x.value)

    def parse_element(self, s: str) -> FieldElement:
        return self.element(int(s.strip()))

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(Field):
    """GF(p^k) by Zech logarithms over a multiplicative generator g.

    The modulus is default_modulus(p, k), monic irreducible of degree k.
    A nonzero payload x (an element index, see the module docstring) is
    g^log[x], and exp[i] = g^i.
    x + y = g^(log x + zech[log y - log x]), where zech[n] = log(1 + g^n),
    None where 1 + g^n = 0.  exp and zech are doubled, so a sum or
    difference of two logs needs no reduction.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 2:
            raise ValueError("extension degree must be >= 2")
        if p**k > EXTENSION_SIZE_CAP:
            raise ValueError(f"p^k = {p ** k} exceeds the table cap {EXTENSION_SIZE_CAP}")
        self.modulus = default_modulus(p, k)
        self.key = ("extension", p, k, self.modulus)
        self._hash = hash(self.key)
        self.p = p
        self.k = k
        self.char = p
        self.size = p**k
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self._build_tables()

    def _build_tables(self):
        p, size = self.p, self.size
        place = [p**j for j in range(self.k)]
        for enc in range(2, size):
            g = _digits(enc, p, self.k)
            exp, x = [1], [1]  # g^0, g^1, ... as payloads; x is the last power's coefficients
            while True:
                x = _polymul_mod(x, g, self.modulus, p)
                if x == [1]:
                    break
                exp.append(sum(map(mul, x, place)))
            if len(exp) == size - 1:
                break
        else:
            raise ValueError("no multiplicative generator found (modulus not irreducible?)")
        log = [None] * size
        for i, x in enumerate(exp):
            log[x] = i
        self._exp, self._log = exp * 2, log
        self._neg_one = (size - 1) // 2 if p > 2 else 0  # log(-1)
        # 1 + g^n adds 1 to the constant digit of g^n, mod p
        self._zech = [log[x + 1 if x % p != p - 1 else x + 1 - p] for x in exp] * 2

    def _canon(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element from a different field")
            return value.value
        if isinstance(value, (int, float, Fraction)):
            return _exact_int(value, self) % self.p
        value = tuple(value)
        if len(value) != self.k:
            raise ValueError(f"{value!r} has {len(value)} coefficients, {self!r} needs {self.k}")
        return sum(_exact_int(c, self) % self.p * self.p**j for j, c in enumerate(value))

    def _add(self, a, b):
        if not a or not b:
            return a or b
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def _sub(self, a, b):
        if not b:
            return a
        lb = self._log[b] + self._neg_one  # log(-b)
        if not a:
            return self._exp[lb]
        la = self._log[a]
        z = self._zech[lb - la]
        return 0 if z is None else self._exp[la + z]

    def _neg(self, a):
        return self._exp[self._log[a] + self._neg_one] if a else 0

    def _mul(self, a, b):
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def _inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.size - 1 - self._log[a]]

    def elements(self):
        return [FieldElement(self, i) for i in range(self.size)]

    def format_element(self, x: FieldElement) -> str:
        return "[" + ",".join(map(str, _digits(x.value, self.p, self.k))) + "]"

    def parse_element(self, s: str) -> FieldElement:
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"bad GF({self.p}^{self.k}) element {s!r}: expected [c0,...,c{self.k - 1}]")
        parts = [c for c in s[1:-1].split(",") if c.strip() != ""]
        if len(parts) != self.k:
            raise ValueError(f"element {s!r} must have exactly {self.k} coefficients")
        return self.element(tuple(int(c) for c in parts))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


class RationalField(Field):
    """Q.  A payload is an int when the value is integral and otherwise a
    Fraction in lowest terms, so integral arithmetic (every coefficient of
    a product of factors (x_j - i(t)) with integral roots) runs on ints.
    The two forms of one value are equal, hash equal and print alike."""

    def __init__(self):
        self.key = ("rational",)
        self._hash = hash(self.key)
        self.char = 0
        self.size = None
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)

    def _canon(self, value):
        if type(value) is int:
            return value
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element from a different field")
            return value.value
        if isinstance(value, float):
            raise ValueError(f"{value!r} is a float; pass a Fraction or a string for an exact rational")
        return _integral(Fraction(value))

    def _add(self, a, b):
        c = a + b
        return c if type(c) is int else _integral(c)

    def _sub(self, a, b):
        c = a - b
        return c if type(c) is int else _integral(c)

    def _mul(self, a, b):
        c = a * b
        return c if type(c) is int else _integral(c)

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        # an int has numerator and denominator too; 1 / a would be a float
        return _integral(Fraction(a.denominator, a.numerator))

    def format_element(self, x: FieldElement) -> str:
        return str(x.value)

    def parse_element(self, s: str) -> FieldElement:
        return self.element(Fraction(s.strip()))

    def __repr__(self):
        return "QQ"


_INTERNED: dict = {}  # spec string or field key -> the one shared handle


def field_from_string(text: str) -> Field:
    """The one shared handle of the field `gf:p`, `gf:p^k` (default
    modulus) or `rational`, interned under the spec string and under the
    field's key, so two spellings of one field give the same handle."""
    field = _INTERNED.get(text)
    if field is None:
        spec = text.strip()
        if spec == "rational":
            field = RationalField()
        elif spec.startswith("gf:"):
            p, power, k = spec[3:].partition("^")
            field = ExtensionField(int(p), int(k)) if power else PrimeField(int(p))
        else:
            raise ValueError(f"bad field spec {text!r}: expected gf:p, gf:p^k, or rational")
        field = _INTERNED[text] = _INTERNED.setdefault(field.key, field)
    return field
