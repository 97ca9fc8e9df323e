"""Command-line interface.

Deterministic text/JSON output; exit 0 on success or verified, 1 on a
verification failure (with a machine-readable witness), 2 on usage
errors.  Defaults: field gf:p for the smallest prime p >= q, embedding
grid:-1 (images 0..q-1) when the characteristic allows, order deglex.
"""

import argparse
import csv
import json
import math
import sys
from functools import cache

from . import acceptance, combinatorics, geometry, groebner, interpolation, oracle
from .combinatorics import Embedding, _data_lines, count_increasing, increasing_sequences, parse_embedding
from .field import field_from_string, is_prime, smallest_prime_geq
from .poly import format_polynomial, mono_to_str, parse_order, parse_polynomial


def _default_field_spec(q: int, prime_power: bool = False) -> str:
    if not prime_power:
        return f"gf:{smallest_prime_geq(q)}"
    if is_prime(q):
        return f"gf:{q}"
    for p in range(2, q):  # the least factor above 1 is prime
        if q % p == 0:
            k = 1
            while p**k < q:
                k += 1
            if p**k == q:
                return f"gf:{p}^{k}"
            break
    raise ValueError(f"q={q} is not a prime power; pass --field explicitly")


# Caps on the work a subcommand takes on; the library's own caps stay
# with the code they guard.
EXPANSION_CAP = 10**6  # terms in an expanded gb or sm basis
INTERPOLATION_CAP = 10**5  # sequences interp solves over
ORACLE_POINT_CAP = 2000  # points an oracle scan takes (1,716 for jnq:7,7)
VERIFY_WORK_CAP = 10**7  # points kakeya or nikodym verify may test, or build-t build
LISTING_CAP = 10**5  # values hilbert lists without --s
_ORACLE = "{count} points exceed the oracle cap {cap}"
_HUGE = 10**4300  # Python prints ints of at most 4300 digits


def _count(exact, a: int, b: int, more_bits: int = 0) -> int:
    """exact(), known to be at least C(a, b) 2^more_bits, or _HUGE once that bound reaches 2^14285 > 10^4300.
    C(a, m) >= (a // m)^m for m = min(b, a - b); callers bound a power p^k by 2^(k (p.bit_length() - 1))."""
    m = min(b, a - b)
    bits = more_bits + (m * ((a // m).bit_length() - 1) if m > 0 else 0)
    return _HUGE if bits >= 14285 else min(_HUGE, exact())


def _sequences(a) -> int:
    """count_increasing for the row's n, q and --kind, through _count."""
    strict = vars(a).get("kind") == "strict"
    return _count(lambda: count_increasing(a.n, a.q, strict), a.q if strict else a.n + a.q - 1, a.n)


def _degree(args) -> int:
    """The degree bound of --kind, a downset's being the full one; a downset file is read into args.downset."""
    args.downset = ()
    if args.kind == "downset":
        if not args.downset_file:
            raise ValueError("--downset-file is required for kind downset")
        args.downset = [tuple(int(v) for v in line.split(",")) for line in _data_lines(_read(args.downset_file))]
    return groebner.degree_bound("full" if args.kind == "downset" else args.kind, args.n, args.q)


def _expansion(args) -> int:
    """Terms of the expanded --kind basis."""
    d = _degree(args)
    return _count(lambda: groebner.expanded_terms(args.kind, args.n, args.q, args.downset),
                  d + 2 * args.n, 2 * args.n - 1)


def _standard(args) -> int:
    """Exponents in the standard monomials of --kind: n binom(n+d, n), or n times the downset's size."""
    d = _degree(args)
    if args.kind == "downset":
        return args.n * len(set(args.downset))
    return _count(lambda: args.n * math.comb(args.n + d, d), args.n + d, args.n, args.n.bit_length() - 1)


def _hilbert(a):
    """hilbert's row: its largest value binom(n+m, n), m the degree bound or min(--s, bound), must print (below
    10^4300); then the values it lists are capped."""
    d = groebner.degree_bound(a.kind, a.n, a.q)
    m = d if a.s is None else min(max(a.s, 0), d)
    if _count(lambda: math.comb(a.n + m, m), a.n + m, a.n) >= _HUGE:
        return _HUGE, _HUGE - 1, "the {a.kind} Hilbert function for n={a.n}, q={a.q} reaches {count}, too long to print"
    count = 1 if a.s is not None else d + 1
    return count, LISTING_CAP, ("the {a.kind} Hilbert function for n={a.n}, q={a.q} has {count} values, "
                                "above the cap {cap}; pass --s for one of them")


# One row per sized leaf subcommand: its work count from the parsed
# arguments `a`, its cap, and its refusal, a template of `a`, `count` and
# `cap`.  No count needs the field, so each is checked before it is found.
_CAPS = {
    "gb": lambda a: (_expansion(a), EXPANSION_CAP,
                     "the {a.kind} basis for n={a.n}, q={a.q} expands to {count} terms, above the cap {cap}"),
    "sm": lambda a: (_standard(a), EXPANSION_CAP,
                     "the {a.kind} basis for n={a.n}, q={a.q} has {count} exponents in its standard monomials, "
                     "above the cap {cap}"),
    "hilbert": _hilbert,
    "interp": lambda a: (_sequences(a), INTERPOLATION_CAP,
                         "{count} sequences for n={a.n}, q={a.q} exceed the interpolation cap {cap}"),
    **dict.fromkeys(["oracle sm", "oracle vanish"], lambda a: (_sequences(a), ORACLE_POINT_CAP, _ORACLE)),
    # the line star bound (q-1) (binom(n+q-1, n) - (q-1)) + 1 is at least half its binomial
    "kakeya build-t": lambda a: (_count(lambda: geometry.line_star_size_bound(a.n, a.q), a.n + a.q - 1, a.n, -1),
                                 VERIFY_WORK_CAP,
                                 "the line star for n={a.n}, q={a.q} may hold {count} points, above the cap {cap}"),
    # Kakeya: binom(n+q-1, n) directions, q^(n-1) lines each, q points a line;
    # Nikodym: binom(n+q-1, n) points, (q^n-1)/(q-1) directions each, q-1 punctured points (q^n-1 >= q^n / 2)
    **dict.fromkeys(["kakeya verify", "nikodym verify"], lambda a: (
        _count(lambda: count_increasing(a.n, a.q) * (a.q**a.n - (a.subcommand == "nikodym")),
               a.n + a.q - 1, a.n, a.n * (a.q.bit_length() - 1) - 1), VERIFY_WORK_CAP,
        "{a.subcommand} verify for n={a.n}, q={a.q} may test {count} points, above the cap {cap}")),
    **dict.fromkeys(["nonvanish", "cover verify", "cover search"], lambda a: (
        _sequences(a), combinatorics.ENUMERATION_CAP, combinatorics.ENUMERATION_REFUSAL)),
}


def _check(args, count: int, cap: int, refusal: str):
    if count > cap:
        raise ValueError(refusal.format(a=args, count="at least 10^4300" if count >= _HUGE else count, cap=cap))


def _check_sizes(args):
    """Refuse a missing --q or --n, sizes below 1, and work over the cap
    of the subcommand's row of _CAPS."""
    if args.q is None:
        raise ValueError("--q is required")
    if args.n is None:
        raise ValueError("--n is required")
    if args.n < 1 or args.q < 1:
        raise ValueError("n and q must be >= 1")
    op = getattr(args, f"{args.subcommand}_op", None)
    _check(args, *_CAPS[f"{args.subcommand} {op}" if op else args.subcommand](args))


def _field(args, prime_power_field: bool = False):
    _check_sizes(args)
    return field_from_string(args.field or _default_field_spec(args.q, prime_power_field))


def _resolve(args, prime_power_field: bool = False, field=None):
    """Field + embedding from the flags, with defaults; the field is _field's unless given."""
    field = field or _field(args, prime_power_field)
    emb = parse_embedding(args.embedding, field, args.q) if args.embedding else Embedding.default(field, args.q)
    return field, emb


def _emit(args, payload, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_gb(args) -> int:
    """gb, and sm, which prints only the standard monomials and builds no basis."""
    _, emb = _resolve(args)
    order = parse_order(args.order)
    sm = groebner.standard_monomials(args.kind, args.n, args.q, args.downset)
    sm_strs = [mono_to_str(m) for m in sorted(sm, key=order.key)]
    # the closed form has one standard monomial per point
    payload = {"kind": args.kind, "n": args.n, "q": args.q, "order": order.kind, "standard_monomials": sm_strs,
               "counts": {"sm": len(sm_strs), "points": len(sm_strs)}}
    lines = [f"standard monomials ({len(sm_strs)}): {' '.join(sm_strs)}"]
    if args.subcommand == "gb":
        gb = (groebner.downset_basis(args.n, args.q, args.downset, emb, order, args.minimize)
              if args.kind == "downset" else groebner.sequence_basis(args.kind, args.n, args.q, emb, order))
        basis = payload["basis"] = [format_polynomial(p, order) for p in gb.polynomials]
        payload["counts"]["basis"] = len(basis)
        payload["reduced"] = gb.is_reduced()
        lines = [f"kind: {args.kind}  n: {args.n}  q: {args.q}  order: {order.kind}", f"basis ({len(basis)}):",
                 *(f"  {s}" for s in basis), *lines, f"points: {len(sm_strs)}  reduced: {payload['reduced']}"]
    _emit(args, payload, lines)
    return 0


def cmd_hilbert(args) -> int:
    _check_sizes(args)
    smax = groebner.degree_bound(args.kind, args.n, args.q)
    svals = [args.s] if args.s is not None else range(smax + 1)
    values = []
    for s in svals:
        value, closed_form = groebner.hilbert_value(args.kind, args.n, args.q, s)
        values.append({"s": s, "value": value, "closed_form": closed_form})
    payload = {"kind": args.kind, "n": args.n, "q": args.q, "values": values}
    lines = [f"h({v['s']}) = {v['value']}" + ("" if v["closed_form"] else "  (saturated)")
             for v in values]
    _emit(args, payload, lines)
    return 0


def cmd_interp(args) -> int:
    field, emb = _resolve(args)
    order = parse_order(args.order)
    if (args.point is None) == (args.values is None):
        raise ValueError("pass exactly one of --point or --values")
    if args.factored and args.values is not None:
        raise ValueError("--factored applies to --point, not --values")
    if args.point is not None:
        seq = tuple(int(v) for v in args.point.split(","))
        ip = interpolation.indicator(seq, args.n, args.q, emb)
        payload = {
            "point": list(seq),
            "expanded": format_polynomial(ip.expanded, order),
            "degree": ip.expanded.degree(),
        }
        lines = [f"expanded: {payload['expanded']}"]
        if args.factored:
            if ip.factored is None:
                payload["factored"] = None
                lines.append("factored: unavailable (embedding is not a grid)")
            else:
                payload["factored"] = {
                    "scalar": field.format_element(ip.factored.scalar),
                    "factors": [format_polynomial(f, order) for f in ip.factored.factors],
                }
                lines.append(f"factored: scalar {payload['factored']['scalar']}, factors "
                             + " | ".join(payload["factored"]["factors"]))
        _emit(args, payload, lines)
        return 0
    values = {}
    with open(args.values, "r", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            seq = tuple(int(v) for v in row[:-1])
            if seq in values:
                raise ValueError(f"--values repeats sequence {seq}")
            values[seq] = field.parse_element(row[-1])
    result = interpolation.interpolate(values, args.n, args.q, emb)
    payload = {"polynomial": format_polynomial(result, order), "degree": result.degree()}
    _emit(args, payload, [f"polynomial: {payload['polynomial']}"])
    return 0


def cmd_nonvanish(args) -> int:
    field = _field(args)
    f = parse_polynomial(args.poly, field, args.n)
    groebner.check_degree(f, args.kind, args.n, args.q)  # before the embedding's q images are built
    _, emb = _resolve(args, field=field)
    witness = groebner.nonvanishing_point(f, args.kind, args.n, args.q, emb)
    if witness is None:
        _emit(args, {"zero": True}, ["zero polynomial: vanishes everywhere by definition"])
        return 0
    payload = {"zero": False, "witness": geometry.format_point(witness),
               "value": field.format_element(f.evaluate(witness))}
    _emit(args, payload, [f"witness: {payload['witness']}  value: {payload['value']}"])
    return 0


def cmd_oracle(args) -> int:
    if args.points and args.builtin:
        raise ValueError("pass --points FILE or --builtin jnq:n,q, not both")
    if args.builtin:
        kind, _, spec = args.builtin.partition(":")
        parts = [v.strip() for v in spec.split(",")]
        if kind not in ("jnq", "sjnq") or len(parts) != 2 or not all(v.isdecimal() for v in parts):
            raise ValueError(f"bad builtin {args.builtin!r}: expected jnq:n,q or sjnq:n,q")
        n, q = map(int, parts)
        for flag, given, spec in (("--q", args.q, q), ("--n", args.n, n)):
            if given is not None and given != spec:
                raise ValueError(f"{flag} disagrees with the builtin spec")
        args.n, args.q, args.kind = n, q, "strict" if kind == "sjnq" else "full"
        field, emb = _resolve(args)
        pts = [emb.apply(s) for s in increasing_sequences(n, q, args.kind == "strict")]
    elif args.points:
        if args.n is None:
            raise ValueError("--n is required with --points")
        if args.field is None and args.q is None:
            raise ValueError("--field is required with --points")
        # no embedding is used, so --q only names the default field
        if args.embedding is not None:
            raise ValueError("--embedding is not used with --points")
        field = field_from_string(args.field or _default_field_spec(args.q))
        # the answer does not depend on the order of the points, so they
        # need no sorting (which an infinite field could not do)
        pts = list(geometry.parse_points(_read(args.points), field, args.n).points)
        _check(args, len(pts), ORACLE_POINT_CAP, _ORACLE)
    else:
        raise ValueError("pass --points FILE or --builtin jnq:n,q")
    order = parse_order(args.order)
    if args.oracle_op == "sm":
        sm = oracle.standard_monomials(pts, order)
        sm_strs = [mono_to_str(m) for m in sorted(sm, key=order.key)]
        payload = {"standard_monomials": sm_strs, "counts": {"sm": len(sm_strs), "points": len(set(pts))}}
        _emit(args, payload, [f"standard monomials ({len(sm_strs)}): {' '.join(sm_strs)}"])
        return 0
    if args.maxdeg is None:
        raise ValueError("--maxdeg is required for oracle vanish")
    vp = oracle.vanishing_polynomial(pts, args.maxdeg, order)
    if vp is None:
        _emit(args, {"vanishing": None}, [f"no nonzero polynomial of degree <= {args.maxdeg} vanishes on the set"])
        return 0
    payload = {"vanishing": format_polynomial(vp, order), "degree": vp.degree()}
    _emit(args, payload, [f"vanishing polynomial: {payload['vanishing']}"])
    return 0


def _load_pointset(args, field) -> geometry.PointSet:
    if args.infile is None:
        raise ValueError("--in is required")
    return geometry.parse_points(_read(args.infile), field, args.n)


def cmd_kakeya(args) -> int:
    if args.kakeya_op == "paper-example":
        K = geometry.optimal_kakeya_f3()
        payload = {"size": len(K), "points": geometry.format_points(K).splitlines()}
        lines = [f"size: {len(K)}"] + payload["points"]
        ok = True
        if args.verify:
            ok = payload["verified"] = geometry.verify_kakeya(K, Embedding.grid(K.field, 3, -1), 3).ok
            payload["bound"] = math.comb(5, 3)
            lines.append(f"verified at threshold 3: {ok}; size {len(K)} = bound {math.comb(5, 3)}")
        _emit(args, payload, lines)
        return 0 if ok else 1
    if args.kakeya_op == "build-t":
        field, emb = _resolve(args, prime_power_field=True)
        T = geometry.line_star(args.n, args.q, field, emb)
        bound = geometry.line_star_size_bound(args.n, args.q)
        payload = {"n": args.n, "q": args.q, "size": len(T), "size_bound": bound,
                   "points": geometry.format_points(T).splitlines()}
        _emit(args, payload, [f"size: {len(T)} (bound {bound})"] + payload["points"])
        return 0
    # verify
    field, emb = _resolve(args, prime_power_field=True)
    K = _load_pointset(args, field)
    threshold = args.threshold if args.threshold is not None else args.q
    result = geometry.verify_kakeya(K, emb, threshold)
    if result.ok:
        payload = {"ok": True, "threshold": threshold, "size": len(K),
                   "entries": [{"direction": geometry.format_point(v), "base": geometry.format_point(b)}
                               for v, b in result.entries]}
        _emit(args, payload, [f"certified: {len(result.entries)} directions at threshold {threshold}"]
              + [f"  direction {e['direction']}: base {e['base']}" for e in payload["entries"]])
        return 0
    payload = {"ok": False, "threshold": threshold,
               "failed_direction": geometry.format_point(result.failed)}
    _emit(args, payload, [f"FAILED: no line at threshold {threshold} in direction {payload['failed_direction']}"])
    return 1


def cmd_nikodym(args) -> int:
    field, emb = _resolve(args, prime_power_field=True)
    B = _load_pointset(args, field)
    result = geometry.verify_nikodym(B, emb)
    if result.ok:
        bound = geometry.nikodym_bound_check(B, emb, result)
        payload = {"ok": True, "size": len(B), "bound": bound.bound,
                   "entries": [{"point": geometry.format_point(z), "direction": geometry.format_point(v)}
                               for z, v in result.entries]}
        _emit(args, payload, [f"certified: {len(result.entries)} points; size {len(B)} >= bound {bound.bound}"]
              + [f"  point {e['point']}: direction {e['direction']}" for e in payload["entries"]])
        return 0
    payload = {"ok": False, "failed_point": geometry.format_point(result.failed)}
    _emit(args, payload, [f"FAILED: no punctured line through {payload['failed_point']}"])
    return 1


def cmd_cover(args) -> int:
    field, emb = _resolve(args)
    excluded = [tuple(int(v) for v in item.split(",")) for item in (args.exclude or [])]
    if args.cover_op == "search":
        result = geometry.cover_search(args.n, args.q, field, emb, excluded)
        payload = {"minimum": result.minimum, "bound": result.bound,
                   "witness": [geometry.format_hyperplane(h) for h in result.witness]}
        _emit(args, payload, [f"minimum: {result.minimum} (lower bound {result.bound})"]
              + [f"  {s}" for s in payload["witness"]])
        return 0
    if args.planes is None:
        raise ValueError("--planes is required")
    planes = geometry.parse_hyperplanes(_read(args.planes), field, args.n)
    result = geometry.cover_verify(planes, args.n, args.q, emb, excluded)
    if result.ok:
        payload = {"covered": True, "size": result.size, "bound": result.bound,
                   "excluded": len(excluded)}
        _emit(args, payload, [f"covered: {result.size} hyperplanes (bound {result.bound})"])
        return 0
    payload = {"covered": False, "uncovered_point": geometry.format_point(result.uncovered_point)}
    _emit(args, payload, [f"NOT COVERED: point {payload['uncovered_point']}"])
    return 1


def cmd_verify_all(args) -> int:
    results = acceptance.run_all(args.max_n, args.max_q, args.seed)
    _emit(args, [{"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail,
                  "elapsed_s": r.elapsed, "budget_s": r.budget} for r in results], [r.line() for r in results])
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser.  Each subcommand or operation takes only the flags
    it reads, and argparse refuses the others (exit 2): --format everywhere,
    --order on gb, sm, interp and oracle, --seed on verify-all, --maxdeg on
    oracle vanish, --planes on cover verify; hilbert, verify-all and kakeya
    paper-example lack --field and --embedding, the last two --n and --q."""
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--n", type=int, default=None, help="number of variables / sequence length")
    size.add_argument("--q", type=int, default=None, help="alphabet size: sequences take values in 1..q")
    placed = argparse.ArgumentParser(add_help=False)
    placed.add_argument("--field", default=None, help="gf:p, gf:p^k, or rational (default: gf of the smallest prime >= q)")
    placed.add_argument("--embedding", default=None, help="grid:<a> or list:<e1>,... (default grid:-1, images 0..q-1)")
    ordered = argparse.ArgumentParser(add_help=False)
    ordered.add_argument("--order", default="deglex", choices=["lex", "deglex"])
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", default="text", choices=["text", "json"])
    printing = [size, placed, ordered, formatted]  # commands that print polynomials or monomials
    placing = [size, placed, formatted]

    parser = argparse.ArgumentParser(prog="incseq",
                                     description="Vanishing ideals of increasing sequences: closed-form "
                                                 "Groebner bases, interpolation, and Kakeya/Nikodym/cover verifiers.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gb", parents=printing, help="construct a closed-form Groebner basis")
    p.add_argument("--kind", default="full", choices=["full", "strict", "downset"])
    p.add_argument("--downset-file", default=None, help="one sequence per line, comma-separated entries")
    p.add_argument("--minimize", action="store_true", help="drop downset-basis members with divisible leading monomials")
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("sm", parents=printing, help="standard monomials only")
    p.add_argument("--kind", default="full", choices=["full", "strict", "downset"])
    p.add_argument("--downset-file", default=None)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("hilbert", parents=[size, formatted], help="Hilbert function values")
    p.add_argument("--kind", default="full", choices=["full", "strict"])
    p.add_argument("--s", type=int, default=None, help="single argument s (default: the whole valid range)")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("interp", parents=printing, help="indicator polynomials and interpolation")
    p.add_argument("--point", default=None, help="distinguished sequence, e.g. 1,2,2,4,4")
    p.add_argument("--factored", action="store_true", help="also emit the grid factored form (with --point)")
    p.add_argument("--values", default=None, help="CSV file: sequence entries..., value")
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("nonvanish", parents=placing, help="nonvanishing witness below the degree bound")
    p.add_argument("--poly", required=True, help="polynomial string, e.g. 'x1 - x2'")
    p.add_argument("--kind", default="full", choices=["full", "strict"])
    p.set_defaults(func=cmd_nonvanish)

    p = sub.add_parser("oracle", help="evaluation-matrix ground truth")
    p.set_defaults(func=cmd_oracle)
    ops = p.add_subparsers(dest="oracle_op", required=True)
    sources = argparse.ArgumentParser(add_help=False)
    sources.add_argument("--points", default=None, help="point file: one point per line, comma-separated elements")
    sources.add_argument("--builtin", default=None, help="jnq:n,q or sjnq:n,q")
    ops.add_parser("sm", parents=printing + [sources], help="standard monomials of the point set")
    p = ops.add_parser("vanish", parents=printing + [sources], help="a vanishing polynomial of bounded degree")
    p.add_argument("--maxdeg", type=int, default=None, help="degree cap")

    p = sub.add_parser("kakeya", help="increasing Kakeya sets")
    p.set_defaults(func=cmd_kakeya)
    ops = p.add_subparsers(dest="kakeya_op", required=True)
    ops.add_parser("build-t", parents=placing, help="the line star T(n, q)")
    p = ops.add_parser("paper-example", parents=[formatted], help="the 10-point set in F_3^3")
    p.add_argument("--verify", action="store_true", help="verify the built-in example")
    p = ops.add_parser("verify", parents=placing, help="certify a point file")
    p.add_argument("--in", dest="infile", default=None, help="point file to verify")
    p.add_argument("--threshold", type=int, default=None, help="line-intersection threshold (default q)")

    p = sub.add_parser("nikodym", parents=placing, help="increasing Nikodym sets")
    p.add_argument("nikodym_op", choices=["verify"])
    p.add_argument("--in", dest="infile", default=None, help="point file to verify")
    p.set_defaults(func=cmd_nikodym)

    p = sub.add_parser("cover", help="affine hyperplane covers")
    p.set_defaults(func=cmd_cover)
    ops = p.add_subparsers(dest="cover_op", required=True)
    excluding = argparse.ArgumentParser(add_help=False)
    excluding.add_argument("--exclude", action="append", default=None,
                           help="excluded sequence, e.g. 1,1 (repeatable)")
    p = ops.add_parser("verify", parents=placing + [excluding], help="check a hyperplane file")
    p.add_argument("--planes", default=None, help="hyperplane file: <n1>,...,<nn>;<offset> per line")
    ops.add_parser("search", parents=placing + [excluding], help="a minimum cover, by exhaustive search")

    p = sub.add_parser("verify-all", parents=[formatted], help="run the acceptance criteria")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized property suites")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-q", type=int, default=4)
    p.set_defaults(func=cmd_verify_all)

    return parser


# one parser per process: parse_args leaves it as it was, and building
# one takes longer than most commands
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
