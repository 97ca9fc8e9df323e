import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incseq.field import (
    EXTENSION_SIZE_CAP,
    ExtensionField,
    Field,
    PrimeField,
    RationalField,
    default_modulus,
    field_from_string,
    is_irreducible,
    is_prime,
    smallest_prime_geq,
)
from incseq.poly import Polynomial


def test_gf3_arithmetic():
    f = field_from_string("gf:3")
    assert (f.element(1) + f.element(2)).is_zero
    assert f.element(2) * f.element(2) == f.element(1)
    assert (-f.element(1)) == f.element(2)


def test_rational_arithmetic():
    f = field_from_string("rational")
    assert (f.element(Fraction(1, 2)) + f.element(Fraction(1, 3))).value == Fraction(5, 6)
    assert f.element(Fraction(-3, 4)).inverse().value == Fraction(-4, 3)


def test_gf4_generator_square():
    f = field_from_string("gf:2^2")
    g = f.element((0, 1))
    assert g * g == g + f.one


def test_enumeration():
    assert [e.value for e in field_from_string("gf:2").elements()] == [0, 1]
    assert [e.value for e in field_from_string("gf:3").elements()] == [0, 1, 2]
    els = field_from_string("gf:2^2").elements()
    assert len(set(els)) == 4
    for a in els:
        for b in els:
            assert a + b in els and a * b in els


def test_rational_not_enumerable():
    with pytest.raises(ValueError):
        RationalField().elements()


@pytest.mark.parametrize("spec", ["gf:2", "gf:3", "gf:2^2", "gf:5", "gf:7", "gf:2^3", "gf:3^2", "gf:2^4", "gf:5^2", "gf:3^3"])
def test_field_axioms_exhaustive(spec):
    f = field_from_string(spec)
    els = f.elements()
    assert len(set(els)) == f.size
    for a in els:
        assert a + f.zero == a and a * f.one == a
        if not a.is_zero:
            assert a * a.inverse() == f.one
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("spec", ["gf:7^2", "gf:2^6", "gf:3^4", "gf:2^8"])
def test_field_axioms_sampled(spec):
    f = field_from_string(spec)
    els = f.elements()
    assert len(set(els)) == f.size
    for a in els:
        if not a.is_zero:
            assert a * a.inverse() == f.one
    rng = random.Random(7)
    for _ in range(2000):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a


def test_extension_char_and_frobenius():
    f = field_from_string("gf:2^3")
    for a in f.elements():
        assert (a + a).is_zero


def test_rational_no_overflow_property():
    f = RationalField()
    rng = random.Random(0)
    for _ in range(1000):
        a = f.element(Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)))
        b = f.element(Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)))
        assert (a + b) - b == a
        if not b.is_zero:
            assert (a / b) * b == a


def test_primality_and_errors():
    assert is_prime(2) and is_prime(65537) and not is_prime(1) and not is_prime(91)
    assert smallest_prime_geq(1) == 2 and smallest_prime_geq(4) == 5 and smallest_prime_geq(5) == 5
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        ExtensionField(4, 2)
    with pytest.raises(ValueError):
        ExtensionField(2, 2, (0, 0, 1))  # y^2, reducible
    with pytest.raises(ValueError):
        ExtensionField(2, 17)  # 2^17 over table cap
    assert 2**16 == EXTENSION_SIZE_CAP


def test_builtin_moduli():
    assert field_from_string("gf:2^2").modulus == (1, 1, 1)
    assert field_from_string("gf:2^3").modulus == (1, 1, 0, 1)
    assert field_from_string("gf:3^2").modulus == (2, 2, 1)


def test_modulus_override():
    default = ExtensionField(3, 2)
    override = ExtensionField(3, 2, (1, 0, 1))  # y^2 + 1, irreducible over GF(3)
    assert override.modulus != default.modulus
    els = override.elements()
    for a in els:
        if not a.is_zero:
            assert a * a.inverse() == override.one


def test_irreducibility_checker():
    assert is_irreducible((1, 1, 1), 2)
    assert not is_irreducible((1, 0, 1), 2)  # y^2 + 1 = (y+1)^2 over GF(2)
    # degree-4 reducible with no roots: (y^2+y+1)^2 = y^4+y^2+1 over GF(2)
    assert not is_irreducible((1, 0, 1, 0, 1), 2)
    assert is_irreducible(default_modulus(2, 4), 2)


def test_spec_string_roundtrip():
    for text, kind in [("gf:3", "prime"), ("gf:2^2", "extension"), ("rational", "rational")]:
        assert field_from_string(text).key[0] == kind
    for bad in ["float:64", "gf:", "gf:3^x"]:
        with pytest.raises(ValueError):
            field_from_string(bad)


def test_element_formatting():
    gf3 = field_from_string("gf:3")
    assert gf3.format_element(gf3.element(5)) == "2"
    assert gf3.parse_element("2") == gf3.element(2)
    gf4 = field_from_string("gf:2^2")
    g = gf4.element((1, 0))
    assert gf4.format_element(g) == "[1,0]"
    assert gf4.parse_element("[1,0]") == g
    with pytest.raises(ValueError):
        gf4.parse_element("[1]")
    q = field_from_string("rational")
    assert q.format_element(q.element(Fraction(-3, 4))) == "-3/4"
    assert q.parse_element("-3/4").value == Fraction(-3, 4)


def test_cross_field_mixing_rejected():
    a = field_from_string("gf:3").element(1)
    b = field_from_string("gf:5").element(1)
    with pytest.raises(ValueError):
        _ = a + b


def test_zero_inverse_rejected():
    for spec in ["gf:3", "gf:2^2", "rational"]:
        f = field_from_string(spec)
        with pytest.raises(ZeroDivisionError):
            f.zero.inverse()


def test_fields_interned_by_spec():
    for text in ["gf:7", "gf:3^2", "rational"]:
        assert field_from_string(text) is field_from_string(text)
    assert field_from_string(" gf:7 ") is field_from_string("gf:7")
    gf9 = field_from_string("gf:3^2")
    assert ExtensionField(3, 2, gf9.modulus) == gf9
    reduced = ExtensionField(3, 2, (5, 2, 1))  # (5, 2, 1) = (2, 2, 1) mod 3
    assert reduced == gf9 and reduced.key == gf9.key == ("extension", 3, 2, (2, 2, 1))
    override = ExtensionField(3, 2, (1, 0, 1))
    assert override is not gf9 and override != gf9
    assert field_from_string("gf:7") is not field_from_string("gf:5")


def test_element_hash_reads_the_cached_spec_hash(monkeypatch):
    gf7 = field_from_string("gf:7")
    separate = PrimeField(7)  # built directly, not interned
    assert separate is not gf7 and separate == gf7 and separate.key == gf7.key == ("prime", 7)
    assert hash(separate.element(3)) == hash(gf7.element(3))
    assert {gf7.element(3): "x"}[separate.element(3)] == "x"
    q = field_from_string("rational")
    assert hash(q.element(Fraction(1, 2))) == hash(RationalField().element(Fraction(1, 2)))

    def no_hash(self):
        raise AssertionError(f"{type(self).__name__} hashed per element")

    monkeypatch.setattr(Field, "__hash__", no_hash)
    assert len({gf7.element(v) for v in range(20)}) == 7


def test_values_the_field_cannot_hold_exactly_rejected():
    q, gf7, gf9 = (field_from_string(s) for s in ("rational", "gf:7", "gf:3^2"))
    for field in (q, gf7, gf9):
        with pytest.raises(ValueError):
            field.element(0.1)
        with pytest.raises(ValueError):
            field.element(2.0)
    for field in (gf7, gf9):
        with pytest.raises(ValueError):
            field.element(Fraction(1, 2))
    with pytest.raises(ValueError):
        gf7.element(2.7)
    with pytest.raises(ValueError):
        gf9.element((1, 2, 5))
    with pytest.raises(ValueError):
        gf9.element((1,))
    with pytest.raises(ValueError):
        gf9.element((1, 0.5))
    # exact values still convert
    assert q.element(Fraction(-3, 4)).value == Fraction(-3, 4)
    assert gf7.element(Fraction(9)) == gf7.element(2)
    assert gf9.element(Fraction(4)) == gf9.element(1) == gf9.element((4, 3))


def test_element_compared_with_int_raises():
    gf7, q = field_from_string("gf:7"), field_from_string("rational")
    for x in (gf7.zero, gf7.element(3), q.one):
        for v in (0, 1, 3, 10):
            with pytest.raises(TypeError):
                _ = x == v
            with pytest.raises(TypeError):
                _ = x != v
            with pytest.raises(TypeError):
                _ = v == x
    assert gf7.element(3) == gf7.element(10) and gf7.element(3) != gf7.element(4)
    assert gf7.zero != "0" and gf7.zero != None  # noqa: E711


def test_element_compared_with_fraction_or_float_raises():
    gf7, q = field_from_string("gf:7"), field_from_string("rational")
    for x in (gf7.one, q.zero, q.one, q.element(Fraction(1, 2))):
        for v in (Fraction(0), Fraction(1), Fraction(1, 2), 0.0, 1.0, 0.5):
            with pytest.raises(TypeError):
                _ = x == v
            with pytest.raises(TypeError):
                _ = x != v
            with pytest.raises(TypeError):
                _ = v == x
            with pytest.raises(TypeError):
                _ = v != x
    # equal elements still hash equal, whatever form they were built from
    for a, b in ((3, Fraction(6, 2)), (Fraction(1, 2), "2/4"), (0, Fraction(0, 5))):
        assert q.element(a) == q.element(b) and hash(q.element(a)) == hash(q.element(b))
    assert {q.element(1): "one"}[q.parse_element("3/3")] == "one"


RATIONALS = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-2, 3)]),
    st.integers(-10**40, 10**40),
    st.fractions(max_denominator=10**12),
)


@st.composite
def rational_pairs(draw):
    """(a, b), with b often chosen so that a + b, a * b or 1 / a is
    integral although a is not: 1/2 and 2, 1/3 and 2/3, -1/5 and -5."""
    a = Fraction(draw(RATIONALS))
    partners = [a.denominator, -a.denominator, 1 - a, -a, a]
    if a:
        partners += [1 / a, Fraction(3 * a.denominator, a.numerator)]
    return a, draw(st.one_of(RATIONALS, st.sampled_from(partners)))


def _assert_canonical(x, want):
    """x is the element of Q with the value want, in canonical form."""
    q = field_from_string("rational")
    assert x.field is q and x.value == want
    assert type(x.value) is (int if Fraction(want).denominator == 1 else Fraction)
    assert q.format_element(x) == str(Fraction(want)) == str(x)
    assert hash(x) == hash(q.element(Fraction(want)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rational_pairs(), st.lists(st.tuples(st.integers(0, 3), RATIONALS), min_size=1, max_size=4),
       RATIONALS)
def test_rational_payload_is_int_exactly_when_integral(pair, terms, x):
    q = field_from_string("rational")
    a, b = pair
    _assert_canonical(q.zero, 0)
    _assert_canonical(q.one, 1)
    for source in (a, str(a), a.numerator if a.denominator == 1 else a):
        _assert_canonical(q.element(source), a)
    _assert_canonical(q.parse_element(str(a)), a)
    _assert_canonical(q.element(Fraction(a.numerator * 7, a.denominator * 7)), a)
    ea, eb = q.element(a), q.element(b)
    fb = Fraction(b)
    _assert_canonical(ea + eb, a + fb)
    _assert_canonical(ea - eb, a - fb)
    _assert_canonical(ea * eb, a * fb)
    _assert_canonical(-ea, -a)
    _assert_canonical(ea * 2, a * 2)
    if fb:
        _assert_canonical(eb.inverse(), 1 / fb)
        _assert_canonical(ea / eb, a / fb)
    # evaluation: a univariate sum of terms c * x^e against plain Fractions
    poly = Polynomial(q, 1, {})
    for e, c in terms:
        poly = poly + Polynomial(q, 1, {(e,): q.element(c)})
    want = sum((Fraction(c.value) * Fraction(x) ** m[0] for m, c in poly.terms.items()), Fraction(0))
    _assert_canonical(poly.evaluate([q.element(x)]), want)
    _assert_canonical(poly.evaluate([q.element(a)]),
                      sum((Fraction(c.value) * a ** m[0] for m, c in poly.terms.items()), Fraction(0)))


@pytest.mark.parametrize("spec", ["gf:2", "gf:7", "gf:2^2", "gf:2^3", "gf:3^2", "gf:5^2", "gf:2^4"])
def test_index_tables_match_payload_arithmetic(spec):
    f = field_from_string(spec)
    tab = f.tables()
    values = [e.value for e in f.elements()]
    assert [e.value for e in tab.elements] == values
    assert values == list(range(f.size))
    assert (tab.elements[tab.zero], tab.elements[tab.one]) == (f.zero, f.one)
    for i, a in enumerate(values):
        assert tab.elements[tab.neg[i]].value == f._neg(a)
        assert tab.inv[i] is None if i == tab.zero else tab.elements[tab.inv[i]].value == f._inv(a)
        for j, b in enumerate(values):
            assert tab.elements[tab.add[i][j]].value == f._add(a, b)
            assert tab.elements[tab.mul[i][j]].value == f._mul(a, b)


def _vector_mul(a, b, p, modulus):
    """Schoolbook product of two coefficient vectors (constant term first),
    reduced by the monic modulus: y^k = -(m_0 + m_1 y + ... + m_(k-1) y^(k-1))."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(2 * k - 2, k - 1, -1):
        top, prod[d] = prod[d], 0
        for i in range(k):
            prod[d - k + i] -= top * modulus[i]
    return tuple(c % p for c in prod[:k])


@pytest.mark.parametrize("spec", ["gf:2^2", "gf:2^3", "gf:2^4", "gf:3^2", "gf:3^3", "gf:5^2", "gf:7^2"])
def test_extension_arithmetic_matches_coefficient_vectors(spec):
    f = field_from_string(spec)
    p, k = f.p, f.k
    vectors = list(itertools.product(range(p), repeat=k))
    payloads = {v: f.element(v).value for v in vectors}
    one = payloads[(1,) + (0,) * (k - 1)]
    # the payload is the element's index: the base-p number of its coefficients
    assert all(payloads[v] == sum(c * p**j for j, c in enumerate(v)) for v in vectors)
    assert [e.value for e in f.elements()] == list(range(p**k))
    for v, a in payloads.items():
        text = "[" + ",".join(map(str, v)) + "]"
        assert f.format_element(f.element(v)) == text and f.parse_element(text).value == a
        assert f._neg(a) == payloads[tuple(-c % p for c in v)]
        products = {w: payloads[_vector_mul(v, w, p, f.modulus)] for w in vectors}
        if a:
            assert f._inv(a) == next(payloads[w] for w, prod in products.items() if prod == one)
        for w, b in payloads.items():
            assert f._add(a, b) == payloads[tuple((x + y) % p for x, y in zip(v, w))]
            assert f._sub(a, b) == payloads[tuple((x - y) % p for x, y in zip(v, w))]
            assert f._mul(a, b) == products[w]
    for c in (-2 * p - 1, -1, 0, 1, p, p + 2, 10**6 + 3):
        assert f.element(c).value == payloads[(c % p,) + (0,) * (k - 1)]
