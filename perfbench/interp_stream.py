"""interp-stream: indicator and interpolation requests over eight contexts.

Why: a context is one (n, q, field, embedding); its first request pays
the dense N x N inverse (interpolation plus linalg), as a CLI user does
on every invocation, and later requests reuse it through
get_interpolator's cache.  The cache is cleared before every pass, so
each pass pays every cold build.  Most contexts are over Q, whose
payloads are Fractions.
"""

import random

import brute
from common import (field_kind, grid_offset, nonzero_payloads, random_element, rngs,
                    sample_points)
from harness import Op, Plan

FIELDS = {"Q": "rational", "F7": "gf:7", "F101": "gf:101", "F8": "gf:2^3"}

# key: (field, n, q, embedding kind, warm indicators, interpolations, evaluations)
# Evaluations of c1's interpolant carry the median and interpolations on
# c1 and c5 the 90th percentile; the eight cold requests sit above it.
# Contexts stay at N <= 36 so that a pass (every cold build included) is
# short enough to repeat about ten times in a run.  Warm indicators go to
# grid contexts, where the factored expansion makes them long enough
# (about 0.3 ms and up) for their spans to cover the op.
CONTEXTS = {
    "c1": ("Q", 3, 5, "grid", 7, 10, 87),
    "c2": ("Q", 4, 4, "grid", 4, 4, 0),
    "c3": ("Q", 2, 7, "grid", 4, 1, 0),
    "c4": ("Q", 5, 3, "grid", 4, 0, 0),
    "c5": ("Q", 2, 8, "grid", 4, 1, 0),
    "c6": ("F7", 3, 5, "grid", 4, 0, 0),
    "c7": ("F101", 3, 5, "list", 0, 1, 0),
    "c8": ("F8", 3, 5, "enum", 0, 1, 0),
}
EVAL_POINTS = 4

SMOKE = {"c1": ("Q", 2, 3, "grid", 3, 1, 1), "c2": ("F8", 2, 4, "enum", 2, 1, 1)}


def plan(seed, smoke=False):
    shape_rng, rng = rngs("interp-stream", seed)
    contexts = SMOKE if smoke else CONTEXTS
    embeddings = {}
    for key, (fkey, n, q, ekind, *_counts) in contexts.items():
        if ekind == "grid":
            embeddings[key] = (fkey, "grid", [q, grid_offset(rng, FIELDS[fkey], q)])
        elif ekind == "enum":
            embeddings[key] = (fkey, "enum", q)
        else:
            embeddings[key] = (fkey, "list", rng.sample(nonzero_payloads(FIELDS[fkey]), q))

    # op list shape: each context opens with a cold indicator at a fixed
    # place in the stream, and its warm requests follow in a fixed shuffle
    order, pending = [], []
    for key, (*_, indicators, interpolations, evaluations) in contexts.items():
        order.append((key, "cold"))
        pending += ([(key, "indicator")] * indicators + [(key, "interpolate")] * interpolations
                    + [(key, "evaluate")] * evaluations)
        shape_rng.shuffle(pending)
        half = len(pending) // 2
        order += pending[:half]
        pending = pending[half:]
    order += pending
    # an evaluation reads a polynomial made earlier in the same pass
    for i, (key, what) in enumerate(order):
        if what == "evaluate" and not any(k == key and w == "interpolate" for k, w in order[:i]):
            j = next(j for j in range(i + 1, len(order)) if order[j] == (key, "interpolate"))
            order[i], order[j] = order[j], order[i]

    draws = []
    for key, what in order:
        fkey, n, q = contexts[key][:3]
        seqs = brute.sequences(n, q)
        draws.append((key, what, rng.getrandbits(32), rng.randrange(len(seqs))))

    env = {"modules": ["incseq", "incseq.interpolation", "incseq.poly"],
           "fields": {k: v for k, v in FIELDS.items() if any(c[0] == k for c in contexts.values())},
           "embeddings": embeddings}

    def make_ops(objs):
        from incseq import interpolation
        from incseq.poly import DEGLEX, format_polynomial

        ops = []
        last_interp = {}
        for key, what, salt, pick in draws:
            fkey, n, q = contexts[key][:3]
            ctx = (objs[fkey], FIELDS[fkey], n, q, objs[key])
            if what in ("cold", "indicator"):
                ops.append(_indicator_op(ctx, key, what, pick, salt, interpolation,
                                         format_polynomial, DEGLEX))
            elif what == "interpolate":
                last_interp[key] = _interpolate_op(ctx, key, salt, interpolation, format_polynomial,
                                                   DEGLEX)
                ops.append(last_interp[key])
            else:
                ops.append(_evaluate_op(ctx, key, salt, last_interp[key]))
        return ops

    def reset():
        from incseq import interpolation

        interpolation.get_interpolator.cache_clear()

    return Plan(env, make_ops, reset)


def _indicator_op(ctx, key, what, pick, salt, interpolation, format_polynomial, order):
    field, spec, n, q, emb = ctx
    seqs = brute.sequences(n, q)
    seq = seqs[pick]
    others = [s for s in sample_points(random.Random(salt), seqs, 4) if s != seq][:3]
    span = "interpolation.indicator_cold" if what == "cold" else "interpolation.indicator_warm"
    grid = emb.is_grid

    def run(tr, results):
        ip = tr.call(span, interpolation.indicator, seq, n, q, emb)
        if what == "cold":
            tr.count("interpolation.matrix_cells", len(seqs) ** 2)
        factored = tr.call("interpolation.factored_expand", ip.factored.expand) if grid else None
        return ip, factored

    def check(res):
        ip, factored = res
        terms = ip.expanded.terms
        if brute.evaluate(terms, brute.images(seq, emb), field) != field.one:
            return f"indicator of {seq} is not 1 at its point"
        for s in others:
            if not brute.evaluate(terms, brute.images(s, emb), field).is_zero:
                return f"indicator of {seq} is not 0 at {s}"
        if brute.degree(terms) != q - 1:
            return f"indicator degree {brute.degree(terms)}, expected {q - 1}"
        if grid and factored.terms != terms:
            return "factored form does not expand to the expanded form"
        return None

    cls = "cold" if what == "cold" else "indicator"
    return Op(cls, "interpolation", field_kind(spec), f"{cls} {key} {spec} n={n} q={q}",
              repr((seq, emb.images)), run, check,
              lambda res: format_polynomial(res[0].expanded, order))


def _interpolate_op(ctx, key, salt, interpolation, format_polynomial, order):
    field, spec, n, q, emb = ctx
    vrng = random.Random(salt)
    seqs = brute.sequences(n, q)
    table = {s: random_element(vrng, field, spec) for s in seqs}
    checked = sample_points(vrng, seqs, 4)

    def run(tr, results):
        return tr.call("interpolation.interpolate", interpolation.interpolate, table, n, q, emb)

    def check(f):
        for s in checked:
            if brute.evaluate(f.terms, brute.images(s, emb), field) != table[s]:
                return f"interpolant misses the table at {s}"
        if brute.degree(f.terms) > q - 1:
            return f"interpolant degree {brute.degree(f.terms)} exceeds {q - 1}"
        return None

    return Op("interpolate", "interpolation", field_kind(spec), f"interpolate {key} {spec} n={n} q={q}",
              repr(sorted(table.items())), run, check, lambda f: format_polynomial(f, order))


def _evaluate_op(ctx, key, salt, source):
    """Evaluate the polynomial that op `source` returned earlier in the pass."""
    field, spec, n, q, emb = ctx
    vrng = random.Random(salt)
    points = [tuple(random_element(vrng, field, spec) for _ in range(n)) for _ in range(EVAL_POINTS)]

    def run(tr, results):
        f = results[source.id]
        return f, [tr.call("poly.evaluate", f.evaluate, p) for p in points]

    def check(res):
        f, values = res
        for p, v in zip(points, values):
            if brute.evaluate(f.terms, p, field) != v:
                return f"evaluation at {p} disagrees"
        return None

    return Op("evaluate", "poly", field_kind(spec), f"evaluate {key} {spec} n={n} q={q} points={EVAL_POINTS}",
              repr(points), run, check, lambda res: ",".join(str(v) for v in res[1]))
