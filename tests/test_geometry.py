import itertools
import math

import pytest

from incseq import field as field_module
from incseq.combinatorics import Embedding, increasing_sequences
from incseq.field import field_from_string
from incseq.geometry import (
    BoundPass,
    CertificateError,
    Hyperplane,
    NikodymCertificate,
    PointSet,
    _canonical,
    _directions,
    _increasing_directions,
    _lines,
    _multiples,
    _nikodym_chain,
    _transversal,
    _translates,
    canonical_direction,
    canonical_hyperplanes,
    cover_search,
    cover_verify,
    format_hyperplane,
    format_points,
    kakeya_line_union_search,
    kakeya_lower_bound_check,
    line_star,
    line_star_size_bound,
    nikodym_bound_check,
    optimal_kakeya_f3,
    parse_hyperplanes,
    parse_points,
    verify_kakeya,
    verify_nikodym,
)
from incseq.oracle import standard_monomials, vanishing_polynomial
from incseq.poly import monomials_up_to_degree

from dense_reference import mono_eval

GF3 = field_from_string("gf:3")
E23 = Embedding.grid(GF3, 3, -1)
E33 = Embedding.grid(GF3, 3, -1)


def _pt(field, *coords):
    return tuple(field.element(c) for c in coords)


def _increasing_pointset(field, n, q, emb):
    return PointSet(field, n, [emb.apply(s) for s in increasing_sequences(n, q)])


# ---------------------------------------------------------------- lines

def _line_set(tab, base, v):
    """The points of the line base + t*v as a set of index tuples."""
    return frozenset(_translates(tab, base, _multiples(tab, v, range(len(tab.elements)))))


@pytest.mark.parametrize("spec", ["gf:2", "gf:3", "gf:2^2", "gf:5", "gf:7", "gf:2^3", "gf:3^2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_line_cardinality(spec, n):
    field = field_from_string(spec)
    tab = field.tables()
    for v in _directions(tab, n):
        _, points = next(_lines(tab, n, v))
        assert len(set(points)) == field.size
    # the lines of a direction partition F^n: one direction per pivot
    space = set(itertools.product(range(field.size), repeat=n))
    for pivot in range(n):
        covered = set()
        for _, points in _lines(tab, n, (tab.zero,) * pivot + (tab.one,) * (n - pivot)):
            assert len(set(points)) == field.size and covered.isdisjoint(points)
            covered.update(points)
        assert covered == space


@pytest.mark.parametrize("spec", ["gf:3", "gf:2^2"])
def test_line_scaling_invariance(spec):
    field = field_from_string(spec)
    tab = field.tables()
    nonzero = [c for c in range(field.size) if c != tab.zero]
    for v in _directions(tab, 2):
        reference = {frozenset(points) for _, points in _lines(tab, 2, v)}
        for c in nonzero:
            scaled = tuple(tab.mul[c][x] for x in v)
            assert _canonical(tab, scaled) == (v.index(tab.one), v)
            assert {_line_set(tab, base, scaled) for base, _ in _lines(tab, 2, v)} == reference


def test_line_base_shift_invariance():
    # every point of a line, taken as its base, gives the same line
    tab = GF3.tables()
    for v in _directions(tab, 2):
        for base, points in _lines(tab, 2, v):
            assert base in points
            assert all(_line_set(tab, p, v) == frozenset(points) for p in points)


def test_constructed_kakeya_sets_meet_dimension_bound():
    # every instance this package constructs and certifies at threshold q
    # has at least binom(q+n-1, n) points
    instances = [(optimal_kakeya_f3(), E33, 3, 3)]
    instances.append((line_star(2, 3, GF3, E23), E23, 2, 3))
    instances.append((line_star(3, 3, GF3, E33), E33, 3, 3))
    _, union = kakeya_line_union_search(2, 3, GF3, E23)
    instances.append((union, E23, 2, 3))
    for K, emb, n, q in instances:
        assert verify_kakeya(K, emb, q).ok
        assert len(K) >= math.comb(q + n - 1, n)


def test_zero_direction_rejected():
    with pytest.raises(ValueError):
        canonical_direction(_pt(GF3, 0, 0))
    with pytest.raises(ValueError):
        _canonical(GF3.tables(), (0, 0))


def test_canonical_direction_count():
    assert len(_directions(GF3.tables(), 2)) == 4
    assert len(_directions(GF3.tables(), 3)) == 13
    gf4 = field_from_string("gf:2^2")
    assert len(_directions(gf4.tables(), 2)) == 5


def test_transversal_hits_every_line_once():
    tab = GF3.tables()
    for pivot in (0, 1):
        bases = list(_transversal(tab, 2, pivot))
        assert len(bases) == 3
        assert all(b[pivot] == tab.zero for b in bases)
        for v in _directions(tab, 2):
            if v.index(tab.one) == pivot:
                for b in bases:
                    assert sum(base in _line_set(tab, b, v) for base in bases) == 1


# ------------------------------------------------------------ point sets

def test_pointset_parse_format_roundtrip():
    ps = line_star(2, 3, GF3, E23)
    again = parse_points(format_points(ps), GF3, 2)
    assert again.points == ps.points
    gf4 = field_from_string("gf:2^2")
    e4 = Embedding.enumeration(gf4, 4)
    t4 = line_star(2, 4, gf4, e4)
    assert parse_points(format_points(t4), gf4, 2).points == t4.points


def test_pointset_width_checked():
    with pytest.raises(ValueError):
        PointSet(GF3, 2, [_pt(GF3, 0, 0, 0)])
    with pytest.raises(ValueError):
        parse_points("0,0,0", GF3, 2)


# ------------------------------------------------------------- line star

def test_line_star_small():
    T = line_star(2, 3, GF3, E23)
    assert len(T) == 7
    assert len(_increasing_directions(GF3.tables(), 2, 3, E23)) == 3
    assert len(T) <= line_star_size_bound(2, 3) == 9


def test_line_star_univariate():
    gf5 = field_from_string("gf:5")
    assert len(line_star(1, 5, gf5, Embedding.grid(gf5, 5, -1))) == 5


def test_line_star_field_size_must_match_q():
    gf5 = field_from_string("gf:5")
    with pytest.raises(ValueError):
        line_star(2, 3, gf5, Embedding.grid(gf5, 3, -1))


@pytest.mark.parametrize("n,q,spec", [(2, 3, "gf:3"), (3, 3, "gf:3"), (2, 4, "gf:2^2")])
def test_line_star_is_kakeya_and_bounded(n, q, spec):
    field = field_from_string(spec)
    emb = Embedding.grid(field, q, -1) if field.char >= q else Embedding.enumeration(field, q)
    T = line_star(n, q, field, emb)
    assert len(T) <= line_star_size_bound(n, q)
    cert = verify_kakeya(T, emb, q)
    assert cert.ok
    assert all(all(x.is_zero for x in base) for _, base in cert.entries)


# ---------------------------------------------------------------- kakeya

def test_optimal_f3_example():
    K = optimal_kakeya_f3()
    assert len(K) == 10 == math.comb(5, 3)
    assert verify_kakeya(K, E33, 3).ok
    shared = _pt(GF3, 1, 1, 2)
    for anchor, direction in [((0, 0, 1), (1, 1, 1)), ((0, 0, 0), (1, 1, 2)), ((0, 2, 0), (1, 2, 2))]:
        line = {tuple(a + t * d for a, d in zip(_pt(GF3, *anchor), _pt(GF3, *direction))) for t in GF3.elements()}
        assert shared in line and line <= K.points


def test_whole_space_is_kakeya():
    els = GF3.elements()
    full = PointSet(GF3, 2, [(a, b) for a in els for b in els])
    assert verify_kakeya(full, E23, 3).ok


def test_kakeya_failure_witness():
    T = line_star(2, 3, GF3, E23)
    damaged = PointSet(GF3, 2, T.points - {_pt(GF3, 0, 1)})
    result = verify_kakeya(damaged, E23, 3)
    assert not result.ok
    assert result.direction == _pt(GF3, 0, 1)


def test_kakeya_threshold_range_checked():
    T = line_star(2, 3, GF3, E23)
    with pytest.raises(ValueError):
        verify_kakeya(T, E23, 0)
    with pytest.raises(ValueError):
        verify_kakeya(T, E23, 4)


def test_kakeya_relaxed_threshold():
    # two points per line suffice at threshold 2
    T = line_star(2, 3, GF3, E23)
    damaged = PointSet(GF3, 2, T.points - {_pt(GF3, 0, 1)})
    assert verify_kakeya(damaged, E23, 2).ok


def test_line_union_search_minimum():
    size, witness = kakeya_line_union_search(2, 3, GF3, E23)
    assert size == 6 == math.comb(4, 2)
    assert verify_kakeya(witness, E23, 3).ok
    # determinism
    size2, witness2 = kakeya_line_union_search(2, 3, GF3, E23)
    assert size2 == size and witness2.points == witness.points


# ----------------------------------------------------- lower bound check

def test_lower_bound_pass_with_equality():
    K = optimal_kakeya_f3()
    J33 = _increasing_pointset(GF3, 3, 3, E33)
    result = kakeya_lower_bound_check(K, J33, 2)
    assert isinstance(result, BoundPass)
    assert result.size == result.bound == 10


def test_lower_bound_counterexample():
    J23 = _increasing_pointset(GF3, 2, 3, E23)
    small = PointSet(GF3, 2, list(J23.sorted_points())[:5])
    result = kakeya_lower_bound_check(small, J23, 2)
    assert not result.ok
    assert result.bound == 6 and result.size == 5
    assert result.poly.degree() <= 2 and not result.poly.is_zero
    assert all(result.poly.evaluate(p).is_zero for p in small.points)
    assert result.chain_verified
    # the witness direction provably has no 3-rich line
    top = result.poly.homogeneous_component(result.poly.degree())
    assert not top.evaluate(result.witness_direction).is_zero


def test_lower_bound_star_condition_checked():
    # a single line through the origin does not dominate degree-1 monomials
    only_line = PointSet(GF3, 2, [(t, GF3.zero) for t in GF3.elements()])
    K = optimal_kakeya_f3()
    J23 = _increasing_pointset(GF3, 2, 3, E23)
    with pytest.raises(ValueError):
        kakeya_lower_bound_check(PointSet(GF3, 2, J23.points), only_line, 1)
    with pytest.raises(ValueError):
        kakeya_lower_bound_check(K, _increasing_pointset(GF3, 3, 3, E33), 3)  # ell > q-1 rejected? q-1=2


def test_no_low_degree_poly_with_tiny_support():
    # every nonzero polynomial of degree <= q-2 = 1 is nonzero on zero
    # points of J(2,3) or on at least 3 of them, never on just 1 or 2
    J23 = [E23.apply(s) for s in increasing_sequences(2, 3)]
    monos = monomials_up_to_degree(2, 1)
    els = GF3.elements()
    for coeffs in itertools.product(els, repeat=len(monos)):
        if all(c.is_zero for c in coeffs):
            continue
        nonzero = 0
        for p in J23:
            total = GF3.zero
            for m, c in zip(monos, coeffs):
                if not c.is_zero:
                    total = total + c * mono_eval(m, p)
            if not total.is_zero:
                nonzero += 1
        assert nonzero == 0 or nonzero >= 3


# --------------------------------------------------------------- nikodym

def test_nikodym_certificates():
    for n, q in [(2, 3), (3, 3)]:
        emb = Embedding.grid(GF3, q, -1)
        T = line_star(n, q, GF3, emb)
        cert = verify_nikodym(T, emb)
        assert cert.ok
        result = nikodym_bound_check(T, emb)
        assert result.ok
        assert result.bound == math.comb(n + q - 2, n)


def test_whole_space_is_nikodym():
    els = GF3.elements()
    full = PointSet(GF3, 2, [(a, b) for a in els for b in els])
    assert verify_nikodym(full, E23).ok


def test_space_minus_origin_is_nikodym():
    els = GF3.elements()
    pts = {(a, b) for a in els for b in els} - {_pt(GF3, 0, 0)}
    B = PointSet(GF3, 2, pts)
    assert verify_nikodym(B, E23).ok


def test_nikodym_failure_witness():
    empty = PointSet(GF3, 2, [])
    result = verify_nikodym(empty, E23)
    assert not result.ok
    assert result.point == _pt(GF3, 0, 0)


def test_nikodym_bound_check_requires_certificate():
    with pytest.raises(CertificateError):
        nikodym_bound_check(PointSet(GF3, 2, []), E23)


def _punctured(z, v):
    """{z + t*v : t != 0} over GF(3), built on field elements."""
    return {tuple(a + t * b for a, b in zip(z, v)) for t in GF3.elements() if not t.is_zero}


def test_nikodym_chain_mechanics():
    # a fabricated one-entry certificate: the chain extends vanishing
    # from a punctured line to its center and emits the trace
    z = _pt(GF3, 0, 0)
    v = _pt(GF3, 0, 1)
    B = PointSet(GF3, 2, _punctured(z, v))
    fake = NikodymCertificate([(z, v)])
    trace = _nikodym_chain(B, E23, fake, bound=3)
    assert not trace.ok
    assert trace.extended_zeros == (z,)
    assert trace.poly.evaluate(z).is_zero
    # a certificate whose line leaves the set is rejected
    bad = NikodymCertificate([(z, _pt(GF3, 1, 0))])
    with pytest.raises(CertificateError):
        _nikodym_chain(B, E23, bad, bound=3)
    # so is one with a zero direction, even where its point lies in the set
    with_z = PointSet(GF3, 2, B.points | {z})
    with pytest.raises(ValueError, match="no direction"):
        _nikodym_chain(with_z, E23, NikodymCertificate([(z, _pt(GF3, 0, 0))]), bound=3)


def test_nikodym_chain_scaled_direction():
    # a non-canonical certificate direction names the same punctured line
    z = _pt(GF3, 0, 0)
    B = PointSet(GF3, 2, _punctured(z, _pt(GF3, 0, 1)))
    canonical = _nikodym_chain(B, E23, NikodymCertificate([(z, _pt(GF3, 0, 1))]), bound=3)
    scaled = _nikodym_chain(B, E23, NikodymCertificate([(z, _pt(GF3, 0, 2))]), bound=3)
    assert scaled.extended_zeros == canonical.extended_zeros == (z,)
    assert scaled.poly == canonical.poly


# ---------------------------------------------------------------- covers

def test_sharp_cover_of_everything():
    planes = [Hyperplane(_pt(GF3, 1, 0), GF3.element(t)) for t in range(3)]
    result = cover_verify(planes, 2, 3, E23)
    assert result.ok and result.size == 3 and result.bound == 3


def test_sharp_cover_with_exclusion():
    planes = [Hyperplane(_pt(GF3, 0, 1), GF3.element(t)) for t in (1, 2)]
    result = cover_verify(planes, 2, 3, E23, excluded=[(1, 1)])
    assert result.ok and result.size == 2 and result.bound == 2
    # without the exclusion the origin is uncovered
    missing = cover_verify(planes, 2, 3, E23)
    assert not missing.ok and missing.uncovered_point == _pt(GF3, 0, 0)


def test_cover_exclusion_limit():
    planes = canonical_hyperplanes(GF3, 2)
    with pytest.raises(ValueError):
        cover_verify(planes, 2, 3, E23, excluded=[(1, 1), (1, 2), (2, 2)])


def test_cover_search_minima():
    assert cover_search(2, 3, GF3, E23).minimum == 3
    one_out = cover_search(2, 3, GF3, E23, excluded=[(1, 1)])
    assert one_out.minimum == 2
    assert cover_verify(one_out.witness, 2, 3, E23, excluded=[(1, 1)]).ok
    gf2 = field_from_string("gf:2")
    assert cover_search(1, 2, gf2, Embedding.grid(gf2, 2, -1)).minimum == 2


def test_cover_search_deterministic_witness():
    a = cover_search(2, 3, GF3, E23)
    b = cover_search(2, 3, GF3, E23)
    assert [format_hyperplane(h) for h in a.witness] == [format_hyperplane(h) for h in b.witness]


def test_no_two_planes_cover_everything():
    planes = canonical_hyperplanes(GF3, 2)
    assert len(planes) == 12
    points = [E23.apply(s) for s in increasing_sequences(2, 3)]
    for h1, h2 in itertools.combinations(planes, 2):
        assert not all(h1.contains(p) or h2.contains(p) for p in points)


def test_search_guards():
    gf37 = field_from_string("gf:37")
    with pytest.raises(ValueError):
        cover_search(2, 37, gf37, Embedding.grid(gf37, 37, -1))  # 1406 planes > cap
    gf5 = field_from_string("gf:5")
    with pytest.raises(ValueError):
        kakeya_line_union_search(3, 5, gf5, Embedding.grid(gf5, 5, -1))


def test_hyperplane_canonicalization_and_io():
    h = Hyperplane(_pt(GF3, 2, 1), GF3.element(1))
    assert h.normal == _pt(GF3, 1, 2)
    assert h.offset == GF3.element(2)
    text = format_hyperplane(h)
    assert parse_hyperplanes(text, GF3, 2) == [h]
    q = field_from_string("rational")
    hq = Hyperplane((q.element(-2), q.element(4)), q.element(3))
    assert hq.normal[0] == q.one
    with pytest.raises(ValueError):
        Hyperplane(_pt(GF3, 0, 0), GF3.zero)
    with pytest.raises(ValueError):
        parse_hyperplanes("1,0", GF3, 2)


def test_oracle_and_geometry_share_one_index_form(monkeypatch):
    monkeypatch.setattr(field_module, "_INTERNED", {})
    built = []
    build = field_module.Tables.__init__

    def counting(self, field):
        built.append(field)
        build(self, field)

    monkeypatch.setattr(field_module.Tables, "__init__", counting)
    f = field_from_string("gf:5")
    emb = Embedding.grid(f, 5, -1)
    assert built == []
    T = line_star(2, 5, f, emb)
    assert verify_kakeya(T, emb, 5).ok and nikodym_bound_check(T, emb).ok
    assert cover_search(2, 5, f, emb).minimum == 5
    assert len(standard_monomials(T.sorted_points())) == len(T)
    assert vanishing_polynomial(T.sorted_points(), 6) is not None  # 28 monomials, 21 points
    assert built == [f] and field_from_string("gf:5").tables() is f.tables()
    # the paper example is built on the interned GF(3)'s tables, once
    gf3 = field_from_string("gf:3")
    assert optimal_kakeya_f3().field is gf3 and optimal_kakeya_f3().field is gf3
    assert built == [f, gf3]
    # above oracle.INDEX_TABLE_CAP the scan calls the field's arithmetic, with no tables
    big = field_from_string("gf:257")
    assert standard_monomials([(big.element(1),), (big.element(2),)]) == {(0,), (1,)}
    assert built == [f, gf3]
    with pytest.raises(ValueError, match="infinite"):
        field_from_string("rational").tables()
