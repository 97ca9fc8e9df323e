"""certify: the evaluation-matrix oracle and the geometry verifiers over
finite fields.

Why: oracle (its linalg elimination) and geometry do the work.  Payloads
are GF(p) ints and GF(p^k) tuples, so a field-representation change that
costs one field kind and helps another shows up as a split.  Oracle ops
carry the 90th percentile and geometry ops the median.
"""

import itertools
import math
import random

import brute
from common import (field_kind, field_payloads, nonzero_payloads, random_downset, rngs,
                    sample_points)
from harness import Op, Plan

FIELDS = {"F3": "gf:3", "F4": "gf:2^2", "F5": "gf:5", "F7": "gf:7", "F8": "gf:2^3", "F9": "gf:3^2",
          "F11": "gf:11", "F13": "gf:13", "F101": "gf:101"}

# geometry ops: (what, n, q, field, extra, count); the field has exactly q
# elements except for cover searches, which need only q of them.  extra is
# the number of excluded sequences (cover), (ell, |K|) (kbound), or the
# number of distinct embedded directions (union over a prime field: the
# search space is q^directions, so it is fixed rather than left to the seed)
GEOMETRY = [
    ("star", 2, 5, "F5", None, 8),
    ("star", 2, 7, "F7", None, 8),
    ("cover", 2, 5, "F5", 1, 8),
    ("star", 3, 4, "F4", None, 8),
    ("star", 2, 8, "F8", None, 8),
    ("star", 3, 5, "F5", None, 12),
    ("star", 2, 9, "F9", None, 10),
    ("kbound", 2, 5, "F5", (3, 8), 12),
    ("union", 2, 4, "F4", None, 8),
    ("cover", 2, 6, "F7", 2, 2),
    ("kbound", 2, 7, "F7", (4, 12), 2),
    ("cover", 3, 4, "F5", 2, 1),
    ("union", 2, 5, "F5", 5, 1),
]

# oracle ops: (what, point set, n, q, field, order, count); the 16
# standard-monomial scans at N=36 carry the 90th percentile, five larger
# ones (up to N=126) sit above it
ORACLE = [
    ("sm", "downset", 3, 5, "F11", "deglex", 4),
    ("sm", "strict", 2, 8, "F13", "lex", 4),
    ("sm", "full", 3, 5, "F101", "deglex", 4),
    ("sm", "full", 2, 8, "F13", "deglex", 16),
    ("vanish", "full", 3, 5, "F101", "deglex", 2),
    ("sm", "full", 3, 5, "F8", "lex", 1),
    ("sm", "full", 3, 6, "F9", "deglex", 1),
    ("sm", "full", 5, 5, "F101", "deglex", 1),
]

SMOKE = {
    "GEOMETRY": [("star", 2, 3, "F3", None, 1), ("cover", 2, 3, "F5", 1, 1),
                 ("union", 2, 3, "F3", None, 1), ("kbound", 2, 5, "F5", (2, 4), 1)],
    "ORACLE": [("sm", "downset", 2, 4, "F8", "lex", 1), ("vanish", "full", 2, 4, "F5", "deglex", 1)],
}


def plan(seed, smoke=False):
    shape_rng, rng = rngs("certify", seed)
    geometry_specs, oracle_specs = ((SMOKE["GEOMETRY"], SMOKE["ORACLE"]) if smoke
                                    else (GEOMETRY, ORACLE))
    embeddings = {}
    specs = []

    def new_embedding(fkey, q, nonzero=False, directions=None):
        # oracle point sets keep 0 out of the images; geometry embeds [q]
        # onto the whole field of q elements, 0 included
        payloads = (nonzero_payloads if nonzero else field_payloads)(FIELDS[fkey])
        key = f"e{len(embeddings)}"
        images = rng.sample(payloads, q)
        while directions is not None and _direction_count(images, q) != directions:
            images = rng.sample(payloads, q)
        embeddings[key] = (fkey, "list", images)
        return key

    for what, n, q, fkey, extra, count in geometry_specs:
        for _ in range(count):
            ekey = new_embedding(fkey, q, directions=extra if what == "union" else None)
            specs.append(("geometry", (what, n, q, fkey, extra, ekey, rng.getrandbits(32))))
    for what, kind, n, q, fkey, order, count in oracle_specs:
        for _ in range(count):
            ekey = new_embedding(fkey, q, nonzero=True)
            specs.append(("oracle", (what, kind, n, q, fkey, order, ekey, rng.getrandbits(32))))
    shape_rng.shuffle(specs)

    env = {"modules": ["incseq", "incseq.geometry", "incseq.oracle"],
           "fields": {k: v for k, v in FIELDS.items() if any(e[0] == k for e in embeddings.values())},
           "embeddings": embeddings}

    def make_ops(objs):
        from incseq import geometry, oracle
        from incseq.poly import DEGLEX, LEX, format_polynomial

        orders = {"lex": LEX, "deglex": DEGLEX}
        ops = []
        for what, spec in specs:
            if what == "geometry":
                ops.append(_geometry_op(spec, objs, geometry, format_polynomial))
            else:
                ops.append(_oracle_op(spec, objs, orders, oracle, format_polynomial))
        return ops

    return Plan(env, make_ops)


def _direction_count(images, p):
    """Distinct canonical directions of the embedded pairs i <= j, for a
    prime field GF(p) whose elements are the ints 0..p-1."""
    out = set()
    for a, b in itertools.combinations_with_replacement(images, 2):
        if (a, b) != (0, 0):
            inv = pow(a or b, p - 2, p)
            out.add((a * inv % p, b * inv % p))
    return len(out)


def _fmt_point(p):
    return "(" + ",".join(str(x) for x in p) + ")"


def _geometry_op(spec, objs, geometry, format_polynomial):
    what, n, q, fkey, extra, ekey, salt = spec
    field, emb = objs[fkey], objs[ekey]
    vrng = random.Random(salt)
    elements = field.elements()
    directions = brute.embedded_directions(n, q, emb)
    shape = f"{what} n={n} q={q} {FIELDS[fkey]}"

    if what == "star":
        def run(tr, results):
            T = tr.call("geometry.line_star", geometry.line_star, n, q, field, emb)
            cert = tr.call("geometry.verify_kakeya", geometry.verify_kakeya, T, emb, q)
            bound = tr.call("geometry.nikodym_bound", geometry.nikodym_bound_check, T, emb)
            tr.count("geometry.set_points", len(T))
            return T, cert, bound

        def check(res):
            T, cert, bound = res
            if not cert.ok:
                return "line star failed Kakeya verification"
            if {v for v, _ in cert.entries} != directions:
                return "Kakeya certificate does not list every embedded direction"
            for v, base in cert.entries:
                if not brute.line(base, v, elements) <= T.points:
                    return f"certified line in direction {_fmt_point(v)} leaves the set"
            if len(T) > (q - 1) * (math.comb(q + n - 1, n) - (q - 1)) + 1:
                return f"|T| = {len(T)} exceeds the line-star bound"
            want = math.comb(n + q - 2, n)
            if not (bound.ok and bound.bound == want and bound.size == len(T) >= want):
                return f"Nikodym bound check gave {bound!r}, expected size {len(T)} >= {want}"
            return None

        def text(res):
            T, cert, bound = res
            return "\n".join([f"size={len(T)} bound={bound.bound}"]
                             + [f"{_fmt_point(v)} @ {_fmt_point(b)}" for v, b in cert.entries])

        values = repr(emb.images)

    elif what == "cover":
        excluded = sample_points(vrng, brute.sequences(n, q), extra)
        targets = [brute.images(s, emb) for s in brute.sequences(n, q) if s not in excluded]
        planes = ((len(elements) ** n - 1) // (len(elements) - 1)) * len(elements)

        def run(tr, results):
            res = tr.call("geometry.cover_search", geometry.cover_search, n, q, field, emb, excluded)
            tr.count("geometry.planes", planes)
            tr.count("geometry.set_points", len(targets))
            return res

        def check(res):
            if res.minimum is None or len(res.witness) != res.minimum:
                return f"cover search gave minimum {res.minimum} with {len(res.witness)} planes"
            for p in targets:
                if not any(brute.dot(h.normal, p, field) == h.offset for h in res.witness):
                    return f"witness cover misses {_fmt_point(p)}"
            bound = q - 1 if excluded else q
            if res.minimum < bound:
                return f"cover of size {res.minimum} beats the proved bound {bound}"
            return None

        def text(res):
            return f"minimum={res.minimum} bound={res.bound}\n" + "\n".join(
                _fmt_point(h.normal) + ";" + str(h.offset) for h in res.witness)

        values = repr((emb.images, excluded))

    elif what == "union":
        def run(tr, results):
            size, K = tr.call("geometry.line_union", geometry.kakeya_line_union_search, n, q, field, emb)
            tr.count("geometry.set_points", len(K))
            return size, K

        def check(res):
            size, K = res
            if size != len(K):
                return f"reported size {size} but the set has {len(K)} points"
            for v in directions:
                if not brute.has_full_line(K.points, v, field, n):
                    return f"union has no full line in direction {_fmt_point(v)}"
            if size < math.comb(n + q - 1, n):
                return f"union of size {size} beats the Kakeya bound {math.comb(n + q - 1, n)}"
            return None

        def text(res):
            return f"size={res[0]}\n" + "\n".join(_fmt_point(p) for p in res[1].sorted_points())

        values = repr(emb.images)

    else:  # kbound: a seeded set below the bound binom(n+ell, n)
        ell, size = extra
        space = list(itertools.product(elements, repeat=n))
        K = geometry.PointSet(field, n, vrng.sample(space, size))
        D = geometry.PointSet(field, n, [brute.images(s, emb) for s in brute.sequences(n, q)])

        def run(tr, results):
            res = tr.call("geometry.kakeya_bound", geometry.kakeya_lower_bound_check, K, D, ell)
            tr.count("geometry.set_points", len(K) + len(D))
            return res

        def check(res):
            if res.ok or res.size != size or res.bound != math.comb(n + ell, n):
                return f"bound check on a {size}-point set gave {type(res).__name__}"
            terms = res.poly.terms
            if not terms or brute.degree(terms) > ell:
                return "counterexample polynomial is zero or too high in degree"
            if any(not brute.evaluate(terms, p, field).is_zero for p in K.points):
                return "counterexample polynomial does not vanish on the set"
            v = res.witness_direction
            top = {m: c for m, c in terms.items() if sum(m) == brute.degree(terms)}
            if v not in D.points or brute.evaluate(top, v, field).is_zero:
                return "witness direction is not a direction where the top part is nonzero"
            if brute.max_line_hit(K.points, v, field, n) > ell:
                return f"a line in witness direction {_fmt_point(v)} meets the set in > {ell} points"
            return None if res.chain_verified else "proof chain not verified"

        def text(res):
            return (f"size={res.size} bound={res.bound} witness={_fmt_point(res.witness_direction)}\n"
                    + format_polynomial(res.poly))

        values = repr((emb.images, sorted(K.points, key=repr)))

    return Op(what, "geometry", field_kind(FIELDS[fkey]), shape, values, run, check, text)


def _oracle_op(spec, objs, orders, oracle, format_polynomial):
    what, kind, n, q, fkey, order_name, ekey, salt = spec
    field, emb, order = objs[fkey], objs[ekey], orders[order_name]
    seqs = brute.sequences(n, q, strict=(kind == "strict"))
    if kind == "downset":
        seqs = random_downset(random.Random(salt), n, q)
    points = [brute.images(s, emb) for s in seqs]
    if kind == "full":
        expected = brute.monomials_upto(n, q - 1)
    elif kind == "strict":
        expected = brute.monomials_upto(n, q - n)
    else:
        expected = {brute.difference_vector(s) for s in seqs}
    maxdeg = q - 1

    if what == "sm":
        def run(tr, results):
            sm = tr.call("oracle.standard_monomials", oracle.standard_monomials, points, order)
            tr.count("oracle.points", len(points))
            tr.count("oracle.matrix_cells", len(points) * len(sm))
            return sm

        def check(sm):
            return None if sm == expected else f"oracle gave {len(sm)} standard monomials != closed form"

        def text(sm):
            return " ".join(map(str, sorted(sm, key=brute.order_key(order_name))))
    else:
        def run(tr, results):
            vp = tr.call("oracle.vanishing_polynomial", oracle.vanishing_polynomial, points, maxdeg, order)
            tr.count("oracle.points", len(points))
            tr.count("oracle.matrix_cells", len(points) * math.comb(n + maxdeg, n))
            return vp

        def check(vp):
            # no nonzero polynomial of degree <= q-1 vanishes on J(n,q)
            return None if vp is None else "a polynomial below the degree bound vanishes on the set"

        def text(vp):
            return "none" if vp is None else format_polynomial(vp, order)

    return Op(what if what == "vanish" else f"sm-{kind}", "oracle", field_kind(FIELDS[fkey]),
              f"oracle {what} {kind} n={n} q={q} {FIELDS[fkey]} {order_name}",
              repr((emb.images, seqs)), run, check, text)
