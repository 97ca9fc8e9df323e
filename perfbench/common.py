"""Seeded value generators and small op helpers shared by the workloads."""

import contextlib
import io
import random

import brute


def field_kind(spec):
    """prime, extension or rational, for a `gf:p`, `gf:p^k` or `rational` spec."""
    if spec == "rational":
        return "rational"
    return "extension" if "^" in spec else "prime"


def rngs(workload, seed):
    """(shape rng, value rng): the shape rng is the same for every seed,
    so a seed changes values and never the op list."""
    return random.Random(f"{workload}:shape"), random.Random(f"{workload}:{seed}")


def field_payloads(spec):
    """Every element of a finite field as an Embedding payload."""
    if "^" in spec:
        p, k = (int(v) for v in spec[3:].split("^"))
        out = []
        for idx in range(p ** k):
            coeffs = []
            for _ in range(k):
                coeffs.append(idx % p)
                idx //= p
            out.append(coeffs)
        return out
    return list(range(int(spec[3:])))


def grid_offset(rng, spec, q):
    """A seeded grid offset a whose images a+1, ..., a+q avoid 0: a zero
    image turns a linear factor into a bare variable and shrinks the
    polynomials, so allowing it would let the seed change op sizes."""
    if spec == "rational":
        return rng.choice([0, 1, 2])
    return rng.randrange(int(spec[3:]) - q)


def nonzero_payloads(spec):
    """Every nonzero element of a finite field, for the same reason."""
    return field_payloads(spec)[1:]


def payload_str(v):
    return "[" + ",".join(str(c) for c in v) + "]" if isinstance(v, list) else str(v)


def embedding_spec(kind, arg):
    """CLI --embedding string for an env embedding entry."""
    if kind == "grid":
        return f"grid:{arg[1]}"
    return "list:" + ",".join(payload_str(v) for v in arg)


def nonzero_coeff(rng, field, spec):
    """A seeded nonzero coefficient of bounded size."""
    if spec == "rational":
        return field.element(rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]))
    if "^" in spec:
        elements = field.elements()
        return elements[rng.randrange(1, len(elements))]
    return field.element(rng.randrange(1, field.char))


def random_element(rng, field, spec):
    if spec == "rational":
        return field.element(rng.randint(-6, 6))
    elements = field.elements()
    return elements[rng.randrange(len(elements))]


def run_cli(tracer, main, argv):
    """cli.main with stdout and stderr captured; (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.call("cli.main", main, argv)
        except SystemExit as exc:  # argparse usage errors exit 2 directly
            code = exc.code
    tracer.count("cli.stdout_bytes", len(out.getvalue().encode()))
    return code, out.getvalue(), err.getvalue()


def sample_points(rng, seqs, k):
    return [seqs[i] for i in sorted(rng.sample(range(len(seqs)), min(k, len(seqs))))]


def random_downset(rng, n, q):
    """A seeded downset of I(n,q) of size N//2: grown one minimal
    element at a time, so its size never depends on the seed."""
    universe = brute.sequences(n, q)
    target = len(universe) // 2
    members = {universe[0]}
    while len(members) < target:
        frontier = [s for s in universe if s not in members and all(
            lower in members for lower in _lower_covers(s))]
        members.add(rng.choice(frontier))
    return sorted(members)


def _lower_covers(seq):
    out = []
    for i, v in enumerate(seq):
        if v > 1 and (i == 0 or seq[i - 1] < v):
            out.append(seq[:i] + (v - 1,) + seq[i + 1:])
    return out
