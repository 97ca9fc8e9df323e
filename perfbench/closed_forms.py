"""closed-forms: build closed-form bases and reduce polynomials by them.

Why: groebner and the multiply/reduce side of poly do the work here;
linalg and interpolation never run.  Basis ops (construct, expand,
is_reduced, format) carry the 90th percentile and reductions the median;
CLI, misuse and small-basis ops sit below it.
"""

import json
import math
import random

import brute
from common import (embedding_spec, field_kind, grid_offset, nonzero_coeff, nonzero_payloads,
                    random_downset, rngs, run_cli, sample_points)
from harness import Op, Plan

FIELDS = {"F7": "gf:7", "F11": "gf:11", "F101": "gf:101", "F9": "gf:3^2", "Q": "rational"}

# (kind, n, q, field, order, embedding kind, count); the 16 full (4,5)
# GF(7) bases carry the 90th percentile, three larger ones sit above it
BASES = [
    ("full", 5, 5, "Q", "lex", "grid", 1),
    ("downset", 5, 5, "F101", "deglex", "list", 1),
    ("full", 4, 5, "Q", "deglex", "grid", 1),
    ("full", 4, 5, "F7", "deglex", "grid", 16),
    ("full", 3, 5, "F9", "lex", "list", 1),
    ("full", 3, 5, "F101", "lex", "list", 1),
    ("downset", 4, 5, "F7", "deglex", "grid", 3),
    ("downset", 4, 5, "Q", "lex", "grid", 2),
    ("strict", 6, 6, "F7", "deglex", "grid", 2),
    ("strict", 4, 7, "F11", "lex", "list", 2),
    ("strict", 3, 8, "F11", "deglex", "grid", 2),
]

# (n, q, field, order, embedding kind, degree, terms, count); supports
# are fixed by the op list, coefficients come from the seed
REDUCTIONS = [
    (4, 6, "F7", "deglex", "grid", 7, 12, 12),
    (4, 6, "Q", "deglex", "grid", 7, 12, 12),
    (4, 6, "F9", "deglex", "list", 7, 12, 11),
    (5, 5, "F101", "deglex", "list", 6, 12, 6),
    (4, 5, "F7", "lex", "grid", 6, 12, 6),
    (3, 6, "Q", "lex", "grid", 7, 12, 6),
]

# (subcommand, kind, n, q, field, order, format, count); hilbert uses n, q, kind only
CLI = [
    ("gb", "full", 3, 5, "F7", "deglex", "text", 2),
    ("gb", "full", 3, 5, "Q", "deglex", "json", 1),
    ("gb", "strict", 4, 6, "F7", "lex", "text", 1),
    ("sm", "full", 4, 5, "F101", "lex", "text", 1),
    ("sm", "strict", 5, 7, "F11", "deglex", "json", 1),
    ("hilbert", "full", 5, 6, None, None, "text", 2),
    ("hilbert", "strict", 4, 7, None, None, "json", 2),
]

# (kind, n, q, field, embedding kind, terms, count): nonvanishing witnesses below the degree bound
NONVANISH = [
    ("full", 4, 5, "F7", "grid", 6, 3),
    ("strict", 3, 6, "Q", "grid", 6, 3),
]

MISUSE = 8

SMOKE = {
    "BASES": [("full", 3, 4, "F7", "deglex", "grid", 1), ("downset", 3, 4, "Q", "lex", "grid", 1),
              ("strict", 3, 5, "F9", "lex", "list", 1)],
    "REDUCTIONS": [(3, 4, "F7", "deglex", "grid", 5, 6, 2), (2, 4, "Q", "lex", "grid", 5, 4, 1)],
    "CLI": [("gb", "full", 2, 4, "F7", "deglex", "text", 1), ("hilbert", "full", 3, 4, None, None, "json", 1)],
    "NONVANISH": [("full", 2, 4, "F7", "grid", 3, 1)],
    "MISUSE": 3,
}


def plan(seed, smoke=False):
    shape_rng, rng = rngs("closed-forms", seed)
    bases, reductions, cli, nonvanish, misuse = BASES, REDUCTIONS, CLI, NONVANISH, MISUSE
    if smoke:
        bases, reductions, cli, nonvanish, misuse = (SMOKE["BASES"], SMOKE["REDUCTIONS"], SMOKE["CLI"],
                                                     SMOKE["NONVANISH"], SMOKE["MISUSE"])

    embeddings = {}

    def emb_key(fkey, q, ekind):
        key = f"{fkey}_q{q}_{ekind}"
        if key not in embeddings:
            if ekind == "grid":
                embeddings[key] = (fkey, "grid", [q, grid_offset(rng, FIELDS[fkey], q)])
            else:
                embeddings[key] = (fkey, "list", rng.sample(nonzero_payloads(FIELDS[fkey]), q))
        return key

    # draw every seeded value up front, in a fixed order
    specs = []
    for kind, n, q, fkey, order, ekind, count in bases:
        for _ in range(count):
            ekey = emb_key(fkey, q, ekind)
            extra = random_downset(rng, n, q) if kind == "downset" else None
            specs.append(("basis", (kind, n, q, fkey, order, ekey, extra, rng.getrandbits(32))))
    for n, q, fkey, order, ekind, deg, terms, count in reductions:
        for _ in range(count):
            ekey = emb_key(fkey, q, ekind)
            monos = sorted(m for m in brute.monomials_upto(n, deg) if sum(m) == deg)
            support = shape_rng.sample(monos, terms)
            specs.append(("reduce", (n, q, fkey, order, ekey, support, rng.getrandbits(32))))
    for sub, kind, n, q, fkey, order, fmt, count in cli:
        for _ in range(count):
            ekey = emb_key(fkey, q, "grid" if fkey in ("F7", "F11", "Q") else "list") if fkey else None
            specs.append(("cli", (sub, kind, n, q, fkey, order, fmt, ekey)))
    for kind, n, q, fkey, ekind, terms, count in nonvanish:
        for _ in range(count):
            ekey = emb_key(fkey, q, ekind)
            specs.append(("nonvanish", (kind, n, q, fkey, ekey, terms, rng.getrandbits(32))))
    for i in range(misuse):
        specs.append(("misuse", (i, rng.randint(2, 4), rng.randint(5, 7))))
    shape_rng.shuffle(specs)

    env = {"modules": ["incseq", "incseq.groebner", "incseq.poly", "incseq.cli"],
           "fields": {k: v for k, v in FIELDS.items()
                      if any(e[0] == k for e in embeddings.values())},
           "embeddings": embeddings}

    def make_ops(objs):
        from incseq import cli, groebner
        from incseq.poly import DEGLEX, LEX, Polynomial, format_polynomial, reduce_by_basis

        orders = {"lex": LEX, "deglex": DEGLEX}
        basis_cache = {}
        ops = []
        for what, spec in specs:
            if what == "basis":
                ops.append(_basis_op(spec, objs, orders, groebner, format_polynomial))
            elif what == "reduce":
                ops.append(_reduce_op(spec, objs, orders, groebner, Polynomial, reduce_by_basis,
                                      format_polynomial, basis_cache))
            elif what == "cli":
                ops.append(_cli_op(spec, embeddings, cli.main))
            elif what == "nonvanish":
                ops.append(_nonvanish_op(spec, objs, groebner, Polynomial, format_polynomial))
            else:
                ops.append(_misuse_op(spec, cli.main))
        return ops

    return Plan(env, make_ops)


def _basis_op(spec, objs, orders, groebner, format_polynomial):
    kind, n, q, fkey, order_name, ekey, downset, salt = spec
    emb, order = objs[ekey], orders[order_name]
    field = objs[fkey]
    seqs = brute.sequences(n, q, strict=(kind == "strict"))
    check_seqs = sample_points(random.Random(salt), downset if kind == "downset" else seqs, 3)

    def run(tr, results):
        if kind == "full":
            gb = tr.call("groebner.construct", groebner.full_basis, n, q, emb, order)
        elif kind == "strict":
            gb = tr.call("groebner.construct", groebner.strict_basis, n, q, emb, order)
        else:
            gb = tr.call("groebner.construct", groebner.downset_basis, n, q, downset, emb, order)
        polys = tr.call("groebner.expand", _expand, gb)
        reduced = tr.call("groebner.is_reduced", gb.is_reduced)
        text = [tr.call("poly.format", format_polynomial, p, order) for p in polys]
        tr.count("groebner.basis_polys", len(polys))
        tr.count("groebner.basis_terms", sum(len(p.terms) for p in polys))
        tr.count("poly.format.bytes", sum(len(s) for s in text))
        return gb, polys, reduced, text

    def check(res):
        gb, polys, reduced, _ = res
        if kind == "full":
            want_polys, want_sm = brute.good_count(n, q), math.comb(n + q - 1, n)
        elif kind == "strict":
            want_polys, want_sm = math.comb(q, n - 1), math.comb(q, n)
        else:
            want_polys = brute.good_count(n, q) + len(seqs) - len(downset)
            want_sm = len(downset)
        if len(polys) != want_polys:
            return f"{len(polys)} basis polynomials, expected {want_polys}"
        if len(gb.standard_monomials) != want_sm:
            return f"{len(gb.standard_monomials)} standard monomials, expected {want_sm}"
        if kind == "downset" and gb.standard_monomials != {brute.difference_vector(s) for s in downset}:
            return "standard monomials are not the downset's difference vectors"
        for s in check_seqs:
            point = brute.images(s, emb)
            for p in polys:
                if not brute.evaluate(p.terms, point, field).is_zero:
                    return f"basis polynomial does not vanish at {s}"
        if reduced != _reduced(polys, order_name):
            return f"is_reduced returned {reduced}"
        if kind != "downset" and not reduced:
            return "closed-form basis is not reduced"
        return None

    shape = f"basis {kind} n={n} q={q} {FIELDS[fkey]} {order_name}"
    return Op("basis", "groebner", field_kind(FIELDS[fkey]), shape, repr((emb.images, downset)),
              run, check, lambda res: "\n".join(res[3]) + f"\nreduced={res[2]}")


def _expand(gb):
    return gb.polynomials


def _reduced(polys, order_name):
    """Monic, and no term of one member divisible by another's leading monomial."""
    lms = [brute.leading(p.terms, order_name) for p in polys]
    for p, lm in zip(polys, lms):
        if p.terms[lm] != p.field.one:
            return False
        for other in lms:
            if other != lm and any(brute.divides(other, m) for m in p.terms):
                return False
    return True


def _reduce_op(spec, objs, orders, groebner, Polynomial, reduce_by_basis, format_polynomial,
               basis_cache):
    n, q, fkey, order_name, ekey, support, salt = spec
    vrng = random.Random(salt)
    emb, order, field = objs[ekey], orders[order_name], objs[fkey]
    key = (ekey, n, order_name)
    if key not in basis_cache:
        basis_cache[key] = groebner.full_basis(n, q, emb, order).polynomials
    basis = basis_cache[key]
    f = Polynomial(field, n, {m: nonzero_coeff(vrng, field, FIELDS[fkey]) for m in support})
    check_points = [brute.images(s, emb) for s in sample_points(vrng, brute.sequences(n, q), 3)]
    lms = [brute.leading(g.terms, order_name) for g in basis]

    def run(tr, results):
        r = tr.call("poly.reduce", reduce_by_basis, f, basis, order)
        tr.count("poly.reduce.remainder_terms", len(r.terms))
        return r

    def check(r):
        for m in r.terms:
            if any(brute.divides(lm, m) for lm in lms):
                return f"remainder term {m} is divisible by a leading monomial"
        for p in check_points:
            if brute.evaluate(f.terms, p, field) != brute.evaluate(r.terms, p, field):
                return "remainder differs from f on the point set"
        return None

    shape = f"reduce n={n} q={q} {FIELDS[fkey]} {order_name} support={support}"
    return Op("reduce", "poly", field_kind(FIELDS[fkey]), shape,
              format_polynomial(f, order) + repr(emb.images), run, check,
              lambda r: format_polynomial(r, order))


def _nonvanish_op(spec, objs, groebner, Polynomial, format_polynomial):
    kind, n, q, fkey, ekey, nterms, salt = spec
    vrng = random.Random(salt)
    emb, field = objs[ekey], objs[fkey]
    bound = q - 1 if kind == "full" else q - n
    support = vrng.sample(sorted(brute.monomials_upto(n, bound)), nterms)
    f = Polynomial(field, n, {m: nonzero_coeff(vrng, field, FIELDS[fkey]) for m in support})
    seqs = brute.sequences(n, q, strict=(kind == "strict"))

    def run(tr, results):
        return tr.call("groebner.nonvanishing", groebner.nonvanishing_point, f, kind, n, q, emb)

    def check(point):
        first = next((brute.images(s, emb) for s in seqs
                      if not brute.evaluate(f.terms, brute.images(s, emb), field).is_zero), None)
        if point != first:
            return f"witness {point}, expected the first nonvanishing point {first}"
        return None

    shape = f"nonvanish {kind} n={n} q={q} {FIELDS[fkey]} terms={nterms}"
    return Op("nonvanish", "groebner", field_kind(FIELDS[fkey]), shape,
              format_polynomial(f) + repr(emb.images), run, check,
              lambda point: ",".join(str(x) for x in point))


def _cli_op(spec, embeddings, main):
    sub, kind, n, q, fkey, order, fmt, ekey = spec
    argv = [sub, "--n", str(n), "--q", str(q), "--format", fmt, "--kind", kind]
    if fkey:
        fk, ekind, arg = embeddings[ekey]
        argv += ["--field", FIELDS[fk], "--embedding", embedding_spec(ekind, arg), "--order", order]

    def run(tr, results):
        return run_cli(tr, main, argv)

    def check(res):
        code, out, err = res
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if sub == "hilbert":
            smax = q - 1 if kind == "full" else q - n
            if fmt == "json":
                got = [v["value"] for v in json.loads(out)["values"]]
            else:
                got = [int(line.split("=")[1]) for line in out.splitlines()]
            want = [math.comb(n + s, s) for s in range(smax + 1)]
            return None if got == want else f"hilbert values {got}, expected {want}"
        want_sm = math.comb(n + q - 1, n) if kind == "full" else math.comb(q, n)
        want_basis = brute.good_count(n, q) if kind == "full" else math.comb(q, n - 1)
        if fmt == "json":
            payload = json.loads(out)
            counts = payload["counts"]
            sm, nb = counts["sm"], counts.get("basis", want_basis)
            reduced = payload.get("reduced", True)
        else:
            lines = out.splitlines()
            sm = _count(lines, "standard monomials")
            nb, reduced = want_basis, True
            if sub == "gb":
                nb, reduced = _count(lines, "basis"), lines[-1].endswith("reduced: True")
        if (sm, nb, reduced) != (want_sm, want_basis, True):
            return f"sm={sm} basis={nb} reduced={reduced}, expected {want_sm} {want_basis} True"
        return None

    shape = f"cli {sub} {kind} n={n} q={q} {FIELDS.get(fkey)} {order} {fmt}"
    return Op("cli", "cli", field_kind(FIELDS[fkey]) if fkey else None, shape, " ".join(argv),
              run, check, lambda res: f"exit {res[0]}\n{res[1]}")


def _count(lines, label):
    """The N of the first `label (N): ...` line of the CLI's text output."""
    line = next(line for line in lines if line.startswith(label))
    return int(line.split("(")[1].split(")")[0])


def _misuse_op(spec, main):
    i, n, q = spec
    variants = [
        ["gb", "--n", str(n), "--q", str(q), "--field", "float:64"],
        ["gb", "--n", str(n), "--q", str(q), "--field", "gf:2", "--embedding", "grid:-1"],
        ["gb", "--q", str(q)],
        ["hilbert", "--n", str(q), "--q", str(n), "--kind", "strict"],
        ["gb", "--n", str(n), "--q", str(q), "--kind", "downset"],
        ["gb", "--n", str(n), "--q", str(q), "--order", "revlex"],
        ["no-such-command", "--n", str(n)],
        ["gb", "--n", str(n), "--q", str(q), "--field", f"gf:{q * q}"],
    ]
    argv = variants[i % len(variants)]

    def run(tr, results):
        return run_cli(tr, main, argv)

    def check(res):
        code, _, err = res
        if code != 2 or not err.strip():
            return f"misuse {argv} gave exit {code} with message {err.strip()!r}"
        return None

    return Op("misuse", "cli", None, f"misuse {i % len(variants)}", " ".join(argv), run, check,
              lambda res: f"exit {res[0]}\n{res[2]}")
