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

from . import acceptance, geometry, groebner, interpolation, oracle
from .combinatorics import Embedding, _data_lines, count_increasing, increasing_sequences, parse_embedding
from .field import field_from_string, is_prime, smallest_prime_geq
from .poly import format_polynomial, mono_to_str, parse_order, parse_polynomial


def _default_field_spec(q: int, prime_power: bool = False) -> str:
    if not prime_power:
        return f"gf:{smallest_prime_geq(q)}"
    if is_prime(q):
        return f"gf:{q}"
    for p in range(2, q):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m == 1 and is_prime(p):
                return f"gf:{p}^{k}"
            break
    raise ValueError(f"q={q} is not a prime power; pass --field explicitly")


def _resolve(args, prime_power_field: bool = False, need_n: bool = True):
    """Field + embedding from the global flags, with defaults; --n is
    required too unless need_n is False."""
    if args.q is None:
        raise ValueError("--q is required")
    field = field_from_string(args.field or _default_field_spec(args.q, prime_power_field))
    emb = parse_embedding(args.embedding, field, args.q) if args.embedding else Embedding.default(field, args.q)
    if need_n and args.n is None:
        raise ValueError("--n is required")
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


def _basis_for(args, field, emb, order):
    """The basis of --kind, refused before it is built when its expansion
    would exceed groebner.EXPANSION_CAP terms."""
    points = ()
    if args.kind == "downset":
        if not args.downset_file:
            raise ValueError("--downset-file is required for kind downset")
        points = [tuple(int(v) for v in line.split(",")) for line in _data_lines(_read(args.downset_file))]
    terms = groebner.expanded_terms(args.kind, args.n, args.q, points)
    if terms > groebner.EXPANSION_CAP:
        raise ValueError(f"the {args.kind} basis for n={args.n}, q={args.q} expands to {terms} terms, "
                         f"above the cap {groebner.EXPANSION_CAP}")
    if args.kind == "full":
        return groebner.full_basis(args.n, args.q, emb, order)
    if args.kind == "strict":
        return groebner.strict_basis(args.n, args.q, emb, order)
    return groebner.downset_basis(args.n, args.q, points, emb, order,
                                  minimize=getattr(args, "minimize", False))


def cmd_gb(args) -> int:
    field, emb = _resolve(args)
    order = parse_order(args.order)
    gb = _basis_for(args, field, emb, order)
    basis_strs = [format_polynomial(p, order) for p in gb.polynomials]
    sm_strs = [mono_to_str(m) for m in gb.sorted_standard_monomials()]
    payload = {
        "kind": gb.kind,
        "n": gb.n,
        "q": gb.q,
        "order": order.kind,
        "basis": basis_strs,
        "standard_monomials": sm_strs,
        "counts": {"basis": len(basis_strs), "sm": len(sm_strs), "points": len(gb.points)},
        "reduced": gb.is_reduced(),
    }
    lines = [f"kind: {gb.kind}  n: {gb.n}  q: {gb.q}  order: {order.kind}",
             f"basis ({len(basis_strs)}):"]
    lines += [f"  {s}" for s in basis_strs]
    lines.append(f"standard monomials ({len(sm_strs)}): {' '.join(sm_strs)}")
    lines.append(f"points: {len(gb.points)}  reduced: {payload['reduced']}")
    _emit(args, payload, lines)
    return 0


def cmd_sm(args) -> int:
    field, emb = _resolve(args)
    order = parse_order(args.order)
    gb = _basis_for(args, field, emb, order)
    sm_strs = [mono_to_str(m) for m in gb.sorted_standard_monomials()]
    payload = {"kind": gb.kind, "n": gb.n, "q": gb.q, "order": order.kind,
               "standard_monomials": sm_strs,
               "counts": {"sm": len(sm_strs), "points": len(gb.points)}}
    _emit(args, payload, [f"standard monomials ({len(sm_strs)}): {' '.join(sm_strs)}"])
    return 0


def cmd_hilbert(args) -> int:
    if args.n is None or args.q is None:
        raise ValueError("--n and --q are required")
    smax = groebner.degree_bound(args.kind, args.n, args.q)
    svals = [args.s] if args.s is not None else list(range(smax + 1))
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
    field, emb = _resolve(args)
    f = parse_polynomial(args.poly, field, args.n)
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
    builtin = None
    if args.builtin:
        kind, _, spec = args.builtin.partition(":")
        parts = [v.strip() for v in spec.split(",")]
        if kind not in ("jnq", "sjnq") or len(parts) != 2 or not all(v.isdecimal() for v in parts):
            raise ValueError(f"bad builtin {args.builtin!r}: expected jnq:n,q or sjnq:n,q")
        n, q = map(int, parts)
        for flag, given, spec in (("--q", args.q, q), ("--n", args.n, n)):
            if given is not None and given != spec:
                raise ValueError(f"{flag} disagrees with the builtin spec")
        args.q = q
        builtin = (n, q, kind == "sjnq")
    if args.points:
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
        _check_oracle_points(len(pts))
    elif builtin:
        field, emb = _resolve(args, need_n=False)
        n, q, strict = builtin
        _check_oracle_points(count_increasing(n, q, strict))
        pts = [emb.apply(s) for s in increasing_sequences(n, q, strict)]
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


def _check_oracle_points(count: int):
    if count > oracle.ORACLE_POINT_CAP:
        raise ValueError(f"{count} points exceed the oracle cap {oracle.ORACLE_POINT_CAP}")


def _load_pointset(args, field) -> geometry.PointSet:
    if args.infile is None:
        raise ValueError("--in is required")
    return geometry.parse_points(_read(args.infile), field, args.n)


def _check_verify_work(kind: str, args):
    """Refuse a verification whose work estimate (geometry.verify_work)
    exceeds geometry.VERIFY_WORK_CAP, before the set is read."""
    work = geometry.verify_work(kind, args.n, args.q)
    if work > geometry.VERIFY_WORK_CAP:
        raise ValueError(f"{kind} verify for n={args.n}, q={args.q} may test {work} points, "
                         f"above the cap {geometry.VERIFY_WORK_CAP}")


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
    field, emb = _resolve(args, prime_power_field=True)
    if args.kakeya_op == "build-t":
        bound = geometry.line_star_size_bound(args.n, args.q)
        if bound > geometry.VERIFY_WORK_CAP:
            raise ValueError(f"the line star for n={args.n}, q={args.q} may hold {bound} points, "
                             f"above the cap {geometry.VERIFY_WORK_CAP}")
        T = geometry.line_star(args.n, args.q, field, emb)
        payload = {"n": args.n, "q": args.q, "size": len(T), "size_bound": bound,
                   "points": geometry.format_points(T).splitlines()}
        _emit(args, payload, [f"size: {len(T)} (bound {bound})"] + payload["points"])
        return 0
    # verify
    _check_verify_work("kakeya", args)
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
               "failed_direction": geometry.format_point(result.direction)}
    _emit(args, payload, [f"FAILED: no line at threshold {threshold} in direction {payload['failed_direction']}"])
    return 1


def cmd_nikodym(args) -> int:
    field, emb = _resolve(args, prime_power_field=True)
    _check_verify_work("nikodym", args)
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
    payload = {"ok": False, "failed_point": geometry.format_point(result.point)}
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
    p.set_defaults(func=cmd_sm)

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
