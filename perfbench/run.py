"""incseq benchmark: one seeded workload, closed loop, one process.

    python3 perfbench/run.py --workload closed-forms --seed 1 --seconds 44 --trace 0

Builds the workload's op list from --seed and runs it in passes for about
--seconds; within a pass the next op starts when the previous one
returns.  The first pass's results get independent checks and their
canonical text is digested (SHA-256); later passes must reproduce that
text exactly.  Checks run outside the timed region.  The last stdout line
is one JSON object: correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones.  An op's latency is
its mean over the run's passes: a shared machine switches between fast
and slow phases lasting seconds, and a mean weighs them by the time
they take, so it holds steadier from run to run than a best time or a
median, which jump with whether a run happens to catch a fast phase;
wall_s is the sum of those latencies over the op list and
op_p50_ms/op_p90_ms are percentiles over it.  setup_s is the median, over
fresh interpreters (probe.py) spread through the run, of importing incseq
and building the workload's fields and embeddings.  peak_rss_mb is this
process's ru_maxrss.

With --trace 1, untraced and traced passes alternate; the metrics are
per layer, from spans recorded around every call the benchmark makes into
incseq, kept in memory and written to perfbench/out/ when the run ends.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import certify
import closed_forms
import interp_stream
from harness import Tracer, build_env, check_result, perf, result_text, run_pass

WORKLOADS = {
    "closed-forms": closed_forms.plan,
    "interp-stream": interp_stream.plan,
    "certify": certify.plan,
}

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
SPANS = [
    "cli.main", "field.make", "combinatorics.embedding",
    "groebner.construct", "groebner.expand", "groebner.is_reduced", "groebner.nonvanishing",
    "poly.reduce", "poly.format", "poly.evaluate",
    "interpolation.indicator_cold", "interpolation.indicator_warm", "interpolation.interpolate",
    "interpolation.factored_expand",
    "oracle.standard_monomials", "oracle.vanishing_polynomial",
    "geometry.line_star", "geometry.verify_kakeya", "geometry.nikodym_bound",
    "geometry.cover_search", "geometry.line_union", "geometry.kakeya_bound",
]
COUNTS = [
    "groebner.basis_polys", "groebner.basis_terms", "poly.reduce.remainder_terms",
    "poly.format.bytes", "interpolation.matrix_cells", "oracle.points", "oracle.matrix_cells",
    "geometry.set_points", "geometry.planes", "cli.stdout_bytes",
]
LAYERS = ["cli", "groebner", "poly", "interpolation", "oracle", "geometry"]
SETUP_PROBES = 15
ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, the fewest passes and one set-up probe (for the self-test)")
    return ap.parse_args(argv)


class Measurement:
    """What the pass loop collected."""

    def __init__(self):
        self.untraced = []        # per untraced pass: op latencies
        self.traced = []          # per traced pass: op latencies
        self.traced_spans = []    # per traced pass: spans
        self.traced_counts = []   # per traced pass: counts
        self.setup_times = []
        self.texts = None         # first pass's canonical output text per op
        self.failed = 0
        self.failed_by_layer = dict.fromkeys(LAYERS, 0)
        self.failures = []

    @property
    def passes(self):
        return len(self.untraced) + len(self.traced)


def probe_setup(args):
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("probe.py")), args.workload,
                           str(args.seed), "1" if args.smoke else "0"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def measure(args, plan, ops, tracer, deadline):
    """Run passes until the next one, or the set-up probes still owed,
    would end after `deadline` (at least one pass, two when tracing),
    checking every op of every pass."""
    m = Measurement()
    probes = 1 if args.smoke else SETUP_PROBES
    min_passes = 2 if args.trace else 1
    bad = {}
    costs = []
    while True:
        begin = perf()
        if len(m.setup_times) < probes:
            m.setup_times.append(probe_setup(args))
            probe_cost = perf() - begin
        plan.reset()
        traced = bool(args.trace) and m.passes % 2 == 1
        tracer.counts = {}
        mark = len(tracer.spans)
        latency, results = run_pass(ops, tracer, traced)
        if traced:
            m.traced.append(latency)
            m.traced_spans.append(tracer.spans[mark:])
            m.traced_counts.append(tracer.counts)
        else:
            m.untraced.append(latency)
        texts = [result_text(op, res) for op, res in zip(ops, results)]
        if m.texts is None:
            m.texts = texts
            for op, res in zip(ops, results):
                reason = check_result(op, res)
                if reason is not None:
                    bad[op.id] = reason
                    m.failures.append(f"op {op.id} ({op.shape}): {reason}")
        for op, text in zip(ops, texts):
            if op.id in bad or text != m.texts[op.id]:
                m.failed += 1
                m.failed_by_layer[op.layer] += 1
                if text != m.texts[op.id]:
                    m.failures.append(f"op {op.id} ({op.shape}): output differs between passes")
        del results
        costs.append(perf() - begin)
        owed = (probes - len(m.setup_times)) * probe_cost
        if m.passes >= min_passes and (args.smoke or perf() + statistics.median(costs) + owed > deadline):
            break
    m.setup_times += [probe_setup(args) for _ in range(probes - len(m.setup_times))]
    return m


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(m, latency):
    values = {
        "wall_s": sum(latency),
        "op_p50_ms": percentile(latency, 50) * 1e3,
        "op_p90_ms": percentile(latency, 90) * 1e3,
        "setup_s": statistics.median(m.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def trace_metrics(ops, m, setup_spans):
    """Per-layer metrics: busy time and calls per span name for one pass
    (median busy time over the traced passes; set-up spans once), the
    counts of one traced pass, failures per layer, and tracing overhead
    as the ratio of median traced to median untraced pass time."""
    def tally(spans):
        busy, calls = {}, {}
        for name, start, end, _ in spans:
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        return busy, calls

    per_pass = [tally(spans) for spans in m.traced_spans]
    setup_busy, setup_calls = tally(setup_spans)
    metrics = {}
    for name in SPANS:
        if name in setup_calls:
            busy, calls = setup_busy[name], setup_calls[name]
        else:
            busy = statistics.median(b.get(name, 0.0) for b, _ in per_pass)
            calls = per_pass[0][1].get(name, 0)
        metrics[f"{name}.busy_s"] = {"value": busy, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
    for name in COUNTS:
        metrics[name] = {"value": m.traced_counts[0].get(name, 0), "unit": "count"}
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = {"value": m.failed_by_layer[layer], "unit": "count"}

    traced_wall = statistics.median(sum(v) for v in m.traced)
    untraced_wall = statistics.median(sum(v) for v in m.untraced)
    coverage = 1.0
    for latency, spans in zip(m.traced, m.traced_spans):
        inside = [0.0] * len(ops)
        for _, start, end, op_id in spans:
            inside[op_id] += end - start
        coverage = min(coverage, min(i / t for i, t in zip(inside, latency) if t > 0))
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced_wall / untraced_wall, "unit": "ratio"}
    metrics["trace.span_coverage_min"] = {"value": coverage, "unit": "ratio"}
    return metrics


def metadata(args, ops, m, latency):
    """Run metadata, the workload's measured shares, and the op classes
    on both sides of each percentile's rank."""
    wall = sum(latency)

    def share(pred):
        return sum(t for op, t in zip(ops, latency) if pred(op)) / wall

    ranked = [ops[i].cls for i in sorted(range(len(ops)), key=latency.__getitem__)]

    def window(p):
        r = round(p / 100 * (len(ops) - 1))
        return ranked[max(0, r - 3):r + 4]

    return {
        "workload": args.workload, "seed": args.seed, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(), "ops": len(ops),
        "passes": m.passes, "traced_passes": len(m.traced),
        "op_classes": {c: sum(op.cls == c for op in ops) for c in dict.fromkeys(op.cls for op in ops)},
        "p50_rank_classes": window(50), "p90_rank_classes": window(90),
        "digest_sha256": hashlib.sha256("\n\0".join(m.texts).encode()).hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src" / "incseq").glob("*.py"))),
        "fail_ratio": m.failed / (len(ops) * m.passes),
        "cold_context_share": share(lambda op: op.cls == "cold"),
        "cli_share": share(lambda op: op.layer == "cli"),
        "field_kind_share": {k: share(lambda op, k=k: op.kind == k)
                             for k in ("prime", "extension", "rational")},
        "pass_wall_s": [sum(v) for v in m.untraced],
        "setup_probes_s": m.setup_times,
    }


def git_sha():
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def write_spans(args, setup_spans, traced_spans):
    """Write the spans kept in memory, one JSON object per line."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as fh:
        for pass_no, spans in [(None, setup_spans)] + list(enumerate(traced_spans)):
            for name, start, end, op_id in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "op": op_id,
                                     "pass": pass_no, "workload": args.workload}) + "\n")


def main(argv=None):
    started = perf()
    args = parse_args(argv)
    if not (ROOT / "src" / "incseq" / "__init__.py").is_file():
        print(f"error: no incseq sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    plan = WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    objs = build_env(plan.env, tracer)
    import incseq

    if not Path(incseq.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported incseq from {incseq.__file__}, not from this checkout", file=sys.stderr)
        return 2
    setup_spans = list(tracer.spans)
    tracer.spans.clear()
    tracer.enabled = False
    ops = plan.make_ops(objs)
    for i, op in enumerate(ops):
        op.id = i

    m = measure(args, plan, ops, tracer, started + args.seconds)
    latency = [statistics.fmean(v) for v in zip(*m.untraced)]
    meta = metadata(args, ops, m, latency)
    for line in m.failures[:20]:
        print(f"FAILED {line}")
    if args.trace:
        metrics = trace_metrics(ops, m, setup_spans)
        write_spans(args, setup_spans, m.traced_spans)
    else:
        metrics = end_to_end(m, latency)
    print(f"{args.workload} seed={args.seed}: {len(ops)} ops x {m.passes} passes, "
          f"fail_ratio={meta['fail_ratio']:.4f} ({m.failed}/{len(ops) * m.passes})")
    for k, v in metrics.items():
        print(f"  {k:<40} {v['value']:.6g} {v['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": m.failed == 0, "attempted": len(ops) * m.passes,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
