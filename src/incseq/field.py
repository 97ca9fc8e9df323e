"""Exact coefficient fields.

Three kinds behind one interface: prime fields GF(p), small extension
fields GF(p^k) with table-based arithmetic, and arbitrary-precision
rationals.  All arithmetic is exact; elements are immutable.
"""

from fractions import Fraction

EXTENSION_SIZE_CAP = 1 << 16

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


def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Exhaustive divisor test: no monic factor of degree 1..k//2."""
    k = len(modulus) - 1
    if k < 1 or modulus[-1] != 1:
        return False
    for d in range(1, k // 2 + 1):
        for enc in range(p**d):
            div = []
            e = enc
            for _ in range(d):
                div.append(e % p)
                e //= p
            div.append(1)
            if not _polymod(list(modulus), tuple(div), p):
                return False
    return True


def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Built-in modulus, or the first irreducible in a deterministic scan."""
    if (p, k) in _BUILTIN_MODULI:
        return _BUILTIN_MODULI[(p, k)]
    for enc in range(p**k):
        coeffs = []
        e = enc
        for _ in range(k):
            coeffs.append(e % p)
            e //= p
        coeffs.reverse()  # scan high-degree coefficients as most significant
        cand = tuple(coeffs) + (1,)
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

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(o.value, self.value))

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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(o.value, self.field._inv(self.value)))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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

    def from_int(self, m: int) -> FieldElement:
        """The image of the integer m, i.e. m copies of 1."""
        return self.element(m)

    def elements(self) -> list[FieldElement]:
        """All field elements exactly once, in canonical order."""
        raise ValueError("cannot enumerate an infinite field")

    _tables = None

    def tables(self) -> "Tables":
        """The field's index form, built on first use and kept on the field
        (so once per interned field); ValueError for an infinite field."""
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
    """Index form of a finite field: element i is `elements[i]`, `index`
    maps a raw payload to its index, and add, mul, neg and inv are tables
    on indices (inv[zero] is None).  A finite field's element i is the
    base-p digit string of i, the constant term least significant, so add
    works digit by digit; mul comes from the field (`_index_mul`)."""

    __slots__ = ("field", "elements", "index", "zero", "one", "add", "mul", "neg", "inv")

    def __init__(self, field: Field):
        elements = field.elements()
        p = field.char
        digits = [[(a + b) % p for b in range(p)] for a in range(p)]
        add = [[0]]
        while len(add) < len(elements):  # the table of p^(j+1) elements from that of p^j
            add = [[d + p * s for s in row for d in low] for row in add for low in digits]
        self.field = field
        self.elements = elements
        self.index = {e.value: i for i, e in enumerate(elements)}
        self.zero = self.index[field.zero.value]
        self.one = self.index[field.one.value]
        self.add = add
        self.mul = field._index_mul()
        self.neg = [row.index(self.zero) for row in add]
        self.inv = [None if i == self.zero else row.index(self.one) for i, row in enumerate(self.mul)]

    def ix(self, p) -> tuple:
        """The index tuple of a point over this field."""
        field = self.field
        if any(x.field is not field and x.field != field for x in p):
            raise ValueError(f"point {p} is not over {field!r}")
        return tuple(self.index[x.value] for x in p)

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

    def _index_mul(self):
        r = range(self.p)
        return [[a * b % self.p for b in r] for a in r]

    def format_element(self, x: FieldElement) -> str:
        return str(x.value)

    def parse_element(self, s: str) -> FieldElement:
        return self.element(int(s.strip()))

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(Field):
    """GF(p^k) via log/exp tables over a multiplicative generator.

    Elements are coefficient tuples of length k over GF(p), constant
    term first; the modulus is monic irreducible of degree k.
    """

    def __init__(self, p: int, k: int, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 2:
            raise ValueError("extension degree must be >= 2")
        if p**k > EXTENSION_SIZE_CAP:
            raise ValueError(f"p^k = {p ** k} exceeds the table cap {EXTENSION_SIZE_CAP}")
        modulus = tuple(modulus) if modulus is not None else default_modulus(p, k)
        if len(modulus) != k + 1 or modulus[-1] % p != 1:
            raise ValueError("modulus must be monic of degree k")
        modulus = tuple(c % p for c in modulus)
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.key = ("extension", p, k, modulus)
        self._hash = hash(self.key)
        self.p = p
        self.k = k
        self.modulus = modulus
        self.char = p
        self.size = p**k
        self.zero = FieldElement(self, (0,) * k)
        one = (1,) + (0,) * (k - 1)
        self.one = FieldElement(self, one)
        self._build_tables()

    def _pad(self, coeffs) -> tuple[int, ...]:
        coeffs = list(coeffs)[: self.k]
        return tuple((coeffs + [0] * self.k)[: self.k])

    def _build_tables(self):
        p, size = self.p, self.size
        one = self.one.value
        for enc in range(1, size):
            cand = self._tuple_from_index(enc)
            powers = []  # g^1, g^2, ..., ending with g^ord = 1
            x = one
            while True:
                x = self._pad(_polymul_mod(list(x), list(cand), self.modulus, p))
                powers.append(x)
                if x == one:
                    break
            if len(powers) == size - 1:
                self._exp = [one] + powers[:-1]  # exp[i] = g^i, i = 0..size-2
                break
        else:
            raise ValueError("no multiplicative generator found (modulus not irreducible?)")
        self._log = {t: i for i, t in enumerate(self._exp)}

    def _tuple_from_index(self, idx: int) -> tuple[int, ...]:
        coeffs = []
        for _ in range(self.k):
            coeffs.append(idx % self.p)
            idx //= self.p
        return tuple(coeffs)

    def _canon(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element from a different field")
            return value.value
        if isinstance(value, (int, float, Fraction)):
            return self._pad([_exact_int(value, self) % self.p])
        value = tuple(value)
        if len(value) != self.k:
            raise ValueError(f"{value!r} has {len(value)} coefficients, {self!r} needs {self.k}")
        return tuple(_exact_int(c, self) % self.p for c in value)

    def _add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _neg(self, a):
        return tuple((-x) % self.p for x in a)

    def _mul(self, a, b):
        if not any(a) or not any(b):
            return self.zero.value
        return self._exp[(self._log[a] + self._log[b]) % (self.size - 1)]

    def _inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % (self.size - 1)]

    def elements(self):
        return [FieldElement(self, self._tuple_from_index(i)) for i in range(self.size)]

    def _index_mul(self):
        """The mul table on element indices, from the log/exp tables."""
        exp = [sum(c * self.p**j for j, c in enumerate(t)) for t in self._exp] * 2
        logs = [self._log[self._tuple_from_index(i)] for i in range(1, self.size)]
        return [[0] * self.size] + [[0] + [exp[a + b] for b in logs] for a in logs]

    def format_element(self, x: FieldElement) -> str:
        return "[" + ",".join(str(c) for c in x.value) + "]"

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
