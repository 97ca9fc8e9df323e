import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incseq.combinatorics import (
    Embedding,
    all_downsets,
    compositions,
    count_increasing,
    difference_vector,
    from_difference_vector,
    increasing_sequences,
    is_downset,
    is_increasing,
    parse_embedding,
)
from incseq.field import field_from_string
from incseq.groebner import _expand_all, strict_basis
from incseq.poly import monomials_up_to_degree

from dense_reference import block_factors, reference_expand

Q = field_from_string("rational")
GF3 = field_from_string("gf:3")


def test_enumeration_counts_and_order():
    seqs = increasing_sequences(2, 3)
    assert len(seqs) == 6 == count_increasing(2, 3)
    assert seqs == sorted(seqs)
    assert increasing_sequences(1, 4) == [(1,), (2,), (3,), (4,)]
    assert increasing_sequences(2, 3, strict=True) == [(1, 2), (1, 3), (2, 3)]
    assert count_increasing(2, 3, strict=True) == 3
    assert increasing_sequences(3, 2, strict=True) == []


def test_enumeration_counts_cross_checked():
    for n in range(1, 9):
        for q in range(1, 9):
            assert len(increasing_sequences(n, q)) == math.comb(n + q - 1, q - 1)
            assert len(increasing_sequences(n, q, strict=True)) == math.comb(q, n)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        increasing_sequences(20, 20)
    with pytest.raises(ValueError):
        increasing_sequences(0, 3)


def test_embedding_examples():
    identity = Embedding.grid(Q, 3, 0)
    assert [x.value for x in identity.apply((1, 2, 2))] == [1, 2, 2]
    shifted = Embedding.grid(GF3, 3, -1)
    assert [x.value for x in shifted.apply((1, 2, 3))] == [0, 1, 2]
    arb = Embedding.from_elements(Q, [5, 7, 11])
    assert [x.value for x in arb.apply((1, 1, 3))] == [5, 5, 11]
    assert not arb.is_grid
    with pytest.raises(ValueError):
        arb.apply((0, 1))


def test_grid_requires_large_characteristic():
    gf2 = field_from_string("gf:2")
    with pytest.raises(ValueError):
        Embedding.grid(gf2, 3, -1)
    # characteristic 0 always admits grids
    Embedding.grid(Q, 100, -1)
    # characteristic exactly q is fine
    Embedding.grid(GF3, 3, -1)


def test_embedding_injectivity_enforced():
    with pytest.raises(ValueError):
        Embedding.from_elements(GF3, [0, 1, 0])
    gf2 = field_from_string("gf:2")
    with pytest.raises(ValueError):
        Embedding.from_elements(gf2, [0, 1, 0])


def test_grid_detection_from_list():
    assert Embedding.from_elements(Q, [1, 2, 3]).is_grid
    assert Embedding.from_elements(Q, [1, 2, 4]).is_grid is False
    e = Embedding.from_elements(GF3, [1, 2, 0])
    assert e.is_grid  # 1, 2, 0 is a + j for a = 0 over GF(3)


def test_parse_embedding():
    assert parse_embedding("grid:-1", GF3, 3) == Embedding.grid(GF3, 3, -1)
    assert parse_embedding("list:5,7,11", Q, 3) == Embedding.from_elements(Q, [5, 7, 11])
    gf4 = field_from_string("gf:2^2")
    e4 = parse_embedding("list:[0,0],[1,0],[0,1],[1,1]", gf4, 4)
    assert e4 == Embedding.enumeration(gf4, 4)
    with pytest.raises(ValueError):
        parse_embedding("list:5,7", Q, 3)
    with pytest.raises(ValueError):
        parse_embedding("ramp:1", Q, 3)


def test_difference_vector_examples():
    assert difference_vector((1, 2, 2, 4, 4)) == (0, 1, 0, 2, 0)
    assert difference_vector((1, 1, 1, 1)) == (0, 0, 0, 0)
    for seq in increasing_sequences(3, 4):
        assert from_difference_vector(difference_vector(seq)) == seq
    with pytest.raises(ValueError):
        from_difference_vector((0, -1))


def test_difference_vector_bijection():
    for n in range(1, 5):
        for q in range(1, 5):
            seqs = increasing_sequences(n, q)
            images = [difference_vector(s) for s in seqs]
            assert len(set(images)) == len(seqs)
            assert set(images) == set(monomials_up_to_degree(n, q - 1))


def _factors(sizes, emb, gap=0):
    """The factor list of a block polynomial, built here, once
    _expand_all is seen to multiply out the same product."""
    factors = block_factors(sizes, emb, gap)
    assert _expand_all(emb, len(sizes), gap, [sizes])[0] == reference_expand(emb.field, len(sizes), factors)
    return tuple(factors)


def _parts(factors, n, emb):
    """The blocks a factor list spells, as the points t of [q] whose image
    i(t) is a root in x_j, for each j."""
    point = {x: t for t, x in enumerate(emb.images, 1)}
    return tuple(tuple(point[x] for j, x in factors if j == k) for k in range(n))


def _blocks_in_order(factors, sizes):
    """Block j's factors are the next sizes[j] ones, all in x_j."""
    return [j for j, _ in factors] == [j for j, size in enumerate(sizes) for _ in range(size)]


def test_good_decompositions():
    emb = Embedding.grid(Q, 2, -1)
    assert [_parts(_factors(s, emb), 2, emb) for s in compositions(2, 2)] == [
        ((), (1, 2)), ((1,), (2,)), ((1, 2), ())]
    emb = Embedding.grid(Q, 5, -1)
    assert [_parts(_factors(s, emb), 1, emb) for s in compositions(5, 1)] == [((1, 2, 3, 4, 5),)]
    # more parts than the recursion limit
    items = compositions(1, 5000)
    assert len(items) == 5000 and items[0] == (0,) * 4999 + (1,) and items[-1] == (1,) + (0,) * 4999
    for n in range(1, 7):
        for q in range(1, 7):
            emb = Embedding.grid(Q, q, -1)
            items = list(compositions(q, n))
            assert len(items) == math.comb(q + n - 1, n - 1)
            for sizes in items:
                factors = _factors(sizes, emb)
                assert [x for _, x in factors] == list(emb.images)  # roots run through i(1..q) in order
                assert _blocks_in_order(factors, sizes)
                assert sum(sizes) == q
            # leading-exponent map is a bijection onto the degree-q monomials
            assert set(items) == {m for m in monomials_up_to_degree(n, q) if sum(m) == q}


def test_super_decompositions():
    emb = Embedding.grid(Q, 3, -1)
    parts = [_parts(_factors(s, emb, gap=1), 2, emb) for s in compositions(2, 2)]
    assert parts == [((), (2, 3)), ((1,), (3,)), ((1, 2), ())]
    # the skipped points
    assert [tuple(sorted({1, 2, 3}.difference(*p))) for p in parts] == [(1,), (2,), (3,)]
    with pytest.raises(ValueError):  # no super blocks when q < n
        strict_basis(3, 2, Embedding.grid(Q, 2, -1))
    for n in range(1, 7):
        for q in range(n, 7):
            emb = Embedding.grid(Q, q, -1)
            items = list(compositions(q - n + 1, n))
            assert len(items) == math.comb(q, n - 1)
            for sizes in items:
                factors = _factors(sizes, emb, gap=1)
                flat = [t for part in _parts(factors, n, emb) for t in part]
                assert flat == sorted(flat) and len(set(flat)) == len(flat)
                assert len(flat) == q - n + 1  # exactly n - 1 points of [q] left out
                assert _blocks_in_order(factors, sizes)
                assert sum(sizes) == q - n + 1
            assert set(items) == {m for m in monomials_up_to_degree(n, q - n + 1) if sum(m) == q - n + 1}


def test_adjacent_gaps_empty_following_part():
    # points 1 and 2 skipped: the block between them is empty
    emb = Embedding.grid(Q, 3, -1)
    assert _factors((0, 0, 1), emb, gap=1) == ((2, emb.images[2]),)


def test_downset_validation():
    assert is_downset({(1, 1), (1, 2)}, 2, 3)
    assert not is_downset({(1, 2)}, 2, 3)
    assert is_downset(increasing_sequences(2, 3), 2, 3)
    with pytest.raises(ValueError):
        is_downset({(2, 1)}, 2, 3)


@st.composite
def downset_candidates(draw):
    """(n, q, points): the downward closure of a few random sequences of
    I(n,q), n <= 3 and q <= 4, with a random part of it dropped, so both
    downsets and non-downsets come up."""
    n, q = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    universe = increasing_sequences(n, q)
    generators = draw(st.lists(st.sampled_from(universe), max_size=3))
    closure = [u for u in universe if any(all(a <= b for a, b in zip(u, g)) for g in generators)]
    dropped = draw(st.sets(st.sampled_from(closure))) if closure else set()
    return n, q, [u for u in closure if u not in dropped]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(downset_candidates())
def test_is_downset_matches_definition(case):
    n, q, points = case
    pts = set(points)
    closed = all(u in pts for v in pts for u in increasing_sequences(n, q)
                 if all(a <= b for a, b in zip(u, v)))
    assert is_downset(points, n, q) == closed


def test_downset_difference_vectors_are_division_closed():
    for downset in all_downsets(2, 3):
        image = {difference_vector(s) for s in downset}
        for m in image:
            for i in range(2):
                if m[i] > 0:
                    below = tuple(e - (1 if j == i else 0) for j, e in enumerate(m))
                    assert below in image


def test_all_downsets_counts():
    assert len(all_downsets(2, 3)) == 7
    assert len(all_downsets(3, 2)) == 4
    for d in all_downsets(2, 3):
        assert is_downset(d, 2, 3)


def test_is_increasing():
    assert is_increasing((1, 1, 2), 3)
    assert not is_increasing((2, 1), 3)
    assert not is_increasing((0, 1), 3)
