"""Op model, span tracer, environment set-up and the pass loop.

Nothing here imports incseq at module import time: the set-up probe
(`probe.py`) must be able to build a workload's plan first and only then
time a cold `import incseq`.
"""

import gc
import importlib
import time

perf = time.perf_counter


class Op:
    """One request of a workload.

    `run(tracer, results)` is the timed part and returns the op's result;
    `check(result)` and `text(result)` run outside the timed region.
    `check` returns None when the result is right and a short reason
    otherwise.  `shape` names the op without its seeded values, `values`
    fingerprints them.
    """

    __slots__ = ("id", "cls", "layer", "kind", "shape", "values", "run", "check", "text")

    def __init__(self, cls, layer, kind, shape, values, run, check, text):
        self.id = None
        self.cls = cls
        self.layer = layer
        self.kind = kind
        self.shape = shape
        self.values = values
        self.run = run
        self.check = check
        self.text = text


class Raised:
    """Result of an op that raised instead of returning."""

    __slots__ = ("exc",)

    def __init__(self, exc):
        self.exc = exc


class Tracer:
    """Records (name, start, end, op id) spans and named counts in memory.

    When disabled, `call` is a plain call and `count` does nothing, so an
    untraced pass pays one extra Python call per call into incseq.
    """

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []
        self.counts = {}

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = perf()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, perf(), self.op))

    def count(self, name, k):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + k


class Plan:
    """A workload instance: seeded environment spec plus an op factory.

    env = {"modules": [...], "fields": {key: spec},
           "embeddings": {key: (field key, "grid", [q, offset]) |
                                (field key, "list", [payloads]) |
                                (field key, "enum", q)}}
    make_ops(env_objects) -> list of Op; reset() runs before every pass.
    """

    def __init__(self, env, make_ops, reset=None):
        self.env = env
        self.make_ops = make_ops
        self.reset = reset or (lambda: None)


def build_env(env, tracer):
    """Import the workload's incseq modules and build its fields and
    embeddings; returns {key: object}.  This is the set-up that
    `setup_s` times."""
    for name in env["modules"]:
        importlib.import_module(name)
    from incseq import Embedding, field_from_string

    objs = {}
    for key, spec in env["fields"].items():
        objs[key] = tracer.call("field.make", field_from_string, spec)
    for key, (fkey, kind, arg) in env["embeddings"].items():
        field = objs[fkey]
        if kind == "grid":
            emb = tracer.call("combinatorics.embedding", Embedding.grid, field, arg[0], arg[1])
        elif kind == "enum":
            emb = tracer.call("combinatorics.embedding", Embedding.enumeration, field, arg)
        else:
            emb = tracer.call("combinatorics.embedding", _list_embedding, Embedding, field, arg)
        objs[key] = emb
    return objs


def _list_embedding(Embedding, field, payloads):
    return Embedding.from_elements(field, [tuple(v) if isinstance(v, list) else v for v in payloads])


def run_pass(ops, tracer, traced):
    """Run every op once in list order, closed loop; returns per-op
    latencies and results.  Ops that raise are recorded, not re-raised."""
    gc.collect()
    tracer.enabled = traced
    results = [None] * len(ops)
    latency = [0.0] * len(ops)
    for op in ops:
        tracer.op = op.id
        start = perf()
        try:
            res = op.run(tracer, results)
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            res = Raised(exc)
        latency[op.id] = perf() - start
        results[op.id] = res
    tracer.enabled = False
    tracer.op = None
    return latency, results


def check_result(op, res):
    """Independent check of one result; None when right, else a reason."""
    if isinstance(res, Raised):
        return f"raised {type(res.exc).__name__}: {res.exc}"
    try:
        return op.check(res)
    except Exception as exc:  # a check that cannot run counts against the op
        return f"check raised {type(exc).__name__}: {exc}"


def result_text(op, res):
    if isinstance(res, Raised):
        return f"raised {type(res.exc).__name__}: {res.exc}"
    return op.text(res)
