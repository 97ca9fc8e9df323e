"""Acceptance suite: one callable per criterion, each returning a
CriterionResult, shared by the `verify-all` CLI subcommand and the test
suite.  All checks are exact; the timed ones also enforce their stated
wall-clock budgets."""

import itertools
import math
import random
import time

from . import geometry, groebner, interpolation, oracle
from .combinatorics import (
    Embedding,
    all_downsets,
    count_increasing,
    difference_vector,
    from_difference_vector,
    increasing_sequences,
)
from .field import field_from_string, smallest_prime_geq
from .poly import DEGLEX, LEX, Polynomial, mono_mul, monomials_up_to_degree, reduce_by_basis


class CriterionResult:
    # elapsed and budget are seconds for a timed criterion that ran to its end, else None
    __slots__ = ("index", "name", "passed", "detail", "elapsed", "budget")

    def __init__(self, index: int, name: str, passed: bool, detail: str, elapsed=None, budget=None):
        self.index, self.name, self.passed, self.detail = index, name, passed, detail
        self.elapsed, self.budget = elapsed, budget

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  criterion {self.index} ({self.name}): {self.detail}"


def _fields_for(q: int):
    return [field_from_string(f"gf:{smallest_prime_geq(q)}"), field_from_string("rational")]


def _kinds_with_points(n: int, q: int):
    """The sequence kinds with points at (n, q): full, and strict when q >= n."""
    return [kind for kind in ("full", "strict") if count_increasing(n, q, kind == "strict")]


def criterion_1(max_n: int = 4, max_q: int = 4) -> CriterionResult:
    """Closed-form basis correctness on nondecreasing sequences: exact
    vanishing, reducedness, and the degree-<= q-1 standard monomials."""
    start = time.perf_counter()
    checked = 0
    for n in range(1, max_n + 1):
        for q in range(1, max_q + 1):
            for field in _fields_for(q):
                emb = Embedding.grid(field, q, -1)
                gb = groebner.full_basis(n, q, emb, DEGLEX)
                points = gb.points
                if len(points) != math.comb(n + q - 1, q - 1):
                    return CriterionResult(1, "groebner", False, f"wrong point count at n={n} q={q}")
                for p in gb.polynomials:
                    if not oracle.vanishes_on(p, points):
                        return CriterionResult(1, "groebner", False, f"nonvanishing element at n={n} q={q} over {field}")
                if not gb.is_reduced():
                    return CriterionResult(1, "groebner", False, f"basis not reduced at n={n} q={q} over {field}")
                expected_sm = frozenset(monomials_up_to_degree(n, q - 1))
                if gb.standard_monomials != expected_sm:
                    return CriterionResult(1, "groebner", False, f"standard monomials wrong at n={n} q={q}")
                if len(gb.standard_monomials) != len(points):
                    return CriterionResult(1, "groebner", False, f"|sm| != |points| at n={n} q={q}")
                checked += 1
    elapsed, budget = time.perf_counter() - start, 5.0
    return CriterionResult(1, "groebner", elapsed < budget,
                           f"{checked} (n,q,field) instances verified in {elapsed:.2f}s (budget {budget:g}s)",
                           elapsed, budget)


def criterion_2(max_n: int = 4, max_q: int = 4) -> CriterionResult:
    """Oracle equivalence: evaluation-matrix standard monomials equal
    the closed forms for full, strict, and downset ideals."""
    field = field_from_string("rational")
    cases = 0
    for n in range(1, max_n + 1):
        for q in range(1, max_q + 1):
            emb = Embedding.grid(field, q, -1)
            for order in (LEX, DEGLEX):
                for kind in _kinds_with_points(n, q):
                    gb = groebner.sequence_basis(kind, n, q, emb, order)
                    if oracle.standard_monomials(gb.points, order) != gb.standard_monomials:
                        return CriterionResult(2, "oracle equivalence", False, f"{kind} mismatch at n={n} q={q} {order}")
                    cases += 1
    emb23 = Embedding.grid(field, 3, -1)
    for downset in all_downsets(2, 3):
        expected = frozenset(difference_vector(g) for g in downset)
        gb = groebner.downset_basis(2, 3, downset, emb23)
        if gb.standard_monomials != expected:
            return CriterionResult(2, "oracle equivalence", False, f"downset formula mismatch for {sorted(downset)}")
        if oracle.standard_monomials(gb.points, DEGLEX) != expected:
            return CriterionResult(2, "oracle equivalence", False, f"downset oracle mismatch for {sorted(downset)}")
        cases += 1
    return CriterionResult(2, "oracle equivalence", True, f"{cases} standard-monomial sets agree exactly")


def criterion_3(max_n: int = 5, max_q: int = 5) -> CriterionResult:
    """Hilbert values: binom(n+s, s) equals the count of closed-form
    standard monomials of degree <= s, over the whole stated range."""
    field = field_from_string("rational")
    checked = 0
    for n in range(1, max_n + 1):
        for q in range(1, max_q + 1):
            emb = Embedding.grid(field, q, -1)
            for kind in _kinds_with_points(n, q):
                gb = groebner.sequence_basis(kind, n, q, emb)
                for s in range(groebner.degree_bound(kind, n, q) + 1):
                    value, closed_form = groebner.hilbert_value(kind, n, q, s)
                    by_count = sum(1 for m in gb.standard_monomials if sum(m) <= s)
                    if not (closed_form and value == math.comb(n + s, s) == by_count):
                        return CriterionResult(3, "hilbert", False, f"mismatch at kind={kind} n={n} q={q} s={s}")
                    checked += 1
    return CriterionResult(3, "hilbert", True, f"{checked} (kind,n,q,s) values equal binom(n+s,s) exactly")


def criterion_4(max_n: int = 4, max_q: int = 4) -> CriterionResult:
    """Indicator polynomials: Kronecker delta, exact degree q-1, factored
    = expanded on grids, and the n=q=5 worked factorization."""
    start = time.perf_counter()
    field = field_from_string("rational")
    pairs = [(n, q) for n in range(1, max_n + 1) for q in range(1, max_q + 1)] + [(5, 5)]
    for n, q in pairs:
        emb = Embedding.grid(field, q, 0)  # identity placement of [q]
        interp = interpolation.get_interpolator(n, q, emb)
        for j, seq in enumerate(interp.sequences):
            ip = interp.indicator(seq)
            # delta property: every indicator evaluated at every point
            for i, point in enumerate(interp.points):
                expected = field.one if i == j else field.zero
                if ip.expanded.evaluate(point) != expected:
                    return CriterionResult(4, "interpolation", False, f"delta failure at n={n} q={q} ({i},{j})")
            if ip.expanded.degree() != q - 1:
                return CriterionResult(4, "interpolation", False, f"degree != q-1 at n={n} q={q} s={seq}")
            if ip.factored is None or ip.factored.expand() != ip.expanded:
                return CriterionResult(4, "interpolation", False, f"factored/expanded mismatch at n={n} q={q} s={seq}")
    emb5 = Embedding.grid(field, 5, 0)
    ip = interpolation.indicator((1, 2, 2, 4, 4), 5, 5, emb5)
    x = [Polynomial.variable(field, 5, i) for i in range(5)]
    c = lambda v: Polynomial.constant(field, 5, v)
    expected_factors = [x[4] - c(5), x[3] - x[2], x[3] - x[2] - c(1), x[1] - x[0]]
    got = list(ip.factored.factors)
    if not (len(got) == 4 and all(f in got for f in expected_factors)):
        return CriterionResult(4, "interpolation", False, "worked n=q=5 factorization not reproduced")
    elapsed, budget = time.perf_counter() - start, 30.0
    return CriterionResult(4, "interpolation", elapsed < budget,
                           f"{len(pairs)} (n,q) families delta-exact; worked 4-factor form reproduced; {elapsed:.1f}s (budget {budget:g}s)",
                           elapsed, budget)


def criterion_5(max_n: int = 4, max_q: int = 4) -> CriterionResult:
    """Nonvanishing below the degree bound: no nonzero polynomial of the
    bounded degree vanishes on the whole (strictly) increasing set."""
    field = field_from_string("rational")
    cases = 0
    for n in range(1, max_n + 1):
        for q in range(1, max_q + 1):
            emb = Embedding.grid(field, q, -1)
            for kind in _kinds_with_points(n, q):
                pts = [emb.apply(s) for s in increasing_sequences(n, q, kind == "strict")]
                if oracle.vanishing_polynomial(pts, groebner.degree_bound(kind, n, q)) is not None:
                    return CriterionResult(5, "nullstellensatz", False, f"{kind} counterexample at n={n} q={q}")
                cases += 1
    return CriterionResult(5, "nullstellensatz", True, f"{cases} nullspaces empty at the degree bounds")


def criterion_6() -> CriterionResult:
    """Increasing Kakeya sets: the optimal 10-point set in F_3^3, the
    size-6 line-union optimum in F_3^2, and the line-star instances."""
    gf3 = field_from_string("gf:3")
    grid3 = Embedding.grid(gf3, 3, -1)
    K = geometry.optimal_kakeya_f3()
    if len(K) != 10 or len(K) != math.comb(5, 3):
        return CriterionResult(6, "kakeya", False, f"|K| = {len(K)}, expected 10 = C(5,3)")
    if not geometry.verify_kakeya(K, grid3, 3).ok:
        return CriterionResult(6, "kakeya", False, "10-point set failed threshold-3 verification")
    size, witness = geometry.kakeya_line_union_search(2, 3, gf3, grid3)
    if size != math.comb(4, 2) or not geometry.verify_kakeya(witness, grid3, 3).ok:
        return CriterionResult(6, "kakeya", False, f"line-union minimum {size}, expected 6")
    checked = []
    for n, q, fieldspec in [(2, 3, "gf:3"), (3, 3, "gf:3"), (2, 4, "gf:2^2")]:
        field = field_from_string(fieldspec)
        emb = Embedding.default(field, q)
        T = geometry.line_star(n, q, field, emb)
        if len(T) > geometry.line_star_size_bound(n, q):
            return CriterionResult(6, "kakeya", False, f"|T({n},{q})| = {len(T)} exceeds its bound")
        if not geometry.verify_kakeya(T, emb, q).ok:
            return CriterionResult(6, "kakeya", False, f"T({n},{q}) failed full-line verification")
        checked.append(f"|T({n},{q})|={len(T)}")
    return CriterionResult(6, "kakeya", True,
                           "10-point optimum certified; F_3^2 minimum 6 found; " + ", ".join(checked))


def criterion_7() -> CriterionResult:
    """Increasing Nikodym sets: line stars certify and meet the
    binom(n+q-2, n) bound."""
    gf3 = field_from_string("gf:3")
    details = []
    for n, q in [(2, 3), (3, 3)]:
        emb = Embedding.grid(gf3, q, -1)
        T = geometry.line_star(n, q, gf3, emb)
        result = geometry.nikodym_bound_check(T, emb)
        if not result.ok:
            return CriterionResult(7, "nikodym", False, f"T({n},{q}) failed the bound check")
        details.append(f"T({n},{q}): size {result.size} >= bound {result.bound}")
    return CriterionResult(7, "nikodym", True, "; ".join(details))


def criterion_8() -> CriterionResult:
    """Hyperplane covers over GF(3), n=2, q=3: exact minima 3 and 2,
    sharp explicit covers, and the exhaustive 2-plane impossibility."""
    start = time.perf_counter()
    gf3 = field_from_string("gf:3")
    emb = Embedding.grid(gf3, 3, -1)
    free = geometry.cover_search(2, 3, gf3, emb)
    if free.minimum != 3:
        return CriterionResult(8, "covers", False, f"minimum without exclusions is {free.minimum}, expected 3")
    one = geometry.cover_search(2, 3, gf3, emb, excluded=[(1, 1)])
    if one.minimum != 2:
        return CriterionResult(8, "covers", False, f"minimum with one exclusion is {one.minimum}, expected 2")
    coord = [geometry.Hyperplane((gf3.one, gf3.zero), gf3.element(t)) for t in range(3)]
    if not geometry.cover_verify(coord, 2, 3, emb).ok:
        return CriterionResult(8, "covers", False, "coordinate cover of size q failed to verify")
    last = [geometry.Hyperplane((gf3.zero, gf3.one), gf3.element(t)) for t in (1, 2)]
    if not geometry.cover_verify(last, 2, 3, emb, excluded=[(1, 1)]).ok:
        return CriterionResult(8, "covers", False, "size q-1 cover with one exclusion failed to verify")
    planes = geometry.canonical_hyperplanes(gf3, 2)
    points = [emb.apply(s) for s in increasing_sequences(2, 3)]
    for h1, h2 in itertools.combinations(planes, 2):
        if all(h1.contains(p) or h2.contains(p) for p in points):
            return CriterionResult(8, "covers", False, f"two planes cover everything: {h1}, {h2}")
    elapsed, budget = time.perf_counter() - start, 10.0
    return CriterionResult(8, "covers", elapsed < budget,
                           f"minima 3/2 exact, sharp covers verified, {len(planes)} planes pair-checked in {elapsed:.2f}s (budget {budget:g}s)",
                           elapsed, budget)


def criterion_9(seed: int = 0) -> CriterionResult:
    """Property suites: term-order axioms, reduction idempotence and
    linearity, exhaustive field axioms, difference-vector bijection."""
    rng = random.Random(seed)

    # term-order axioms on 10^4 random monomial triples, both orders
    for _ in range(10_000):
        n = rng.randint(1, 6)
        u, v, w = (tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(3))
        for order in (LEX, DEGLEX):
            ku, kv = order.key(u), order.key(v)
            if (ku < kv) + (kv < ku) + (ku == kv) != 1:
                return CriterionResult(9, "properties", False, f"order not total on {u}, {v}")
            if order.key((0,) * n) > ku:
                return CriterionResult(9, "properties", False, f"1 not minimal below {u}")
            if ku < kv and not order.key(mono_mul(u, w)) < order.key(mono_mul(v, w)):
                return CriterionResult(9, "properties", False, f"multiplicativity fails on {u}, {v}, {w}")

    # reduction idempotence + linearity on 10^3 random polynomials
    def random_poly(field, n, q):
        f = Polynomial.zero(field, n)
        for _ in range(rng.randint(1, 5)):
            mono = tuple(rng.randint(0, q) for _ in range(n))
            coeff = field.element(rng.randint(-6, 6))
            f = f + Polynomial(field, n, {mono: coeff}) if not coeff.is_zero else f
        return f

    for _ in range(500):
        n, q = rng.randint(1, 3), rng.randint(1, 3)
        field = field_from_string(rng.choice([f"gf:{smallest_prime_geq(q)}", "rational"]))
        emb = Embedding.grid(field, q, -1)
        basis = groebner.full_basis(n, q, emb).polynomials
        f, g = random_poly(field, n, q), random_poly(field, n, q)
        rf = reduce_by_basis(f, basis, DEGLEX)
        rg = reduce_by_basis(g, basis, DEGLEX)
        if reduce_by_basis(rf, basis, DEGLEX) != rf:
            return CriterionResult(9, "properties", False, f"reduction not idempotent over {field}")
        a, b = field.element(rng.randint(-5, 5)), field.element(rng.randint(-5, 5))
        combo = reduce_by_basis(f.scale(a) + g.scale(b), basis, DEGLEX)
        if combo != rf.scale(a) + rg.scale(b):
            return CriterionResult(9, "properties", False, f"reduction not linear over {field}")

    # field axioms, exhaustive
    for spec in ["gf:2", "gf:3", "gf:2^2", "gf:5", "gf:2^3", "gf:3^2"]:
        field = field_from_string(spec)
        els = field.elements()
        if len(set(els)) != field.size:
            return CriterionResult(9, "properties", False, f"{spec} enumeration broken")
        for a in els:
            if not a.is_zero and a * a.inverse() != field.one:
                return CriterionResult(9, "properties", False, f"{spec} inverse broken at {a}")
            for b in els:
                if a + b != b + a or a * b != b * a:
                    return CriterionResult(9, "properties", False, f"{spec} commutativity broken")
                for c in els:
                    if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
                        return CriterionResult(9, "properties", False, f"{spec} associativity/distributivity broken")

    # difference-vector bijection, exhaustive n,q <= 6
    for n in range(1, 7):
        for q in range(1, 7):
            seqs = increasing_sequences(n, q)
            images = {difference_vector(s) for s in seqs}
            target = {m for m in monomials_up_to_degree(n, q - 1)}
            if images != target or len(images) != len(seqs):
                return CriterionResult(9, "properties", False, f"bijection fails at n={n} q={q}")
            for s in seqs:
                if from_difference_vector(difference_vector(s)) != s:
                    return CriterionResult(9, "properties", False, f"roundtrip fails at {s}")
    return CriterionResult(9, "properties", True,
                           "10^4 order triples, 10^3 reductions, 6 exhaustive field tables, bijection n,q<=6: zero failures")


def run_all(max_n: int = 4, max_q: int = 4, seed: int = 0) -> list[CriterionResult]:
    return [
        criterion_1(max_n, max_q),
        criterion_2(max_n, max_q),
        criterion_3(),
        criterion_4(max_n, max_q),
        criterion_5(max_n, max_q),
        criterion_6(),
        criterion_7(),
        criterion_8(),
        criterion_9(seed),
    ]
