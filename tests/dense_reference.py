"""Dense references for the tests: monomial evaluation, evaluation
matrices, reduced row echelon form and products of linear factors, all
on FieldElement objects.

They share no code with the raw-payload kernels in `incseq` and are
slow on purpose: tests compare the kernels' results with these.
"""

from incseq.poly import DEGLEX, Polynomial, TermOrder


def mono_eval(m: tuple[int, ...], point):
    result = point[0].field.one
    for x, e in zip(point, m):
        for _ in range(e):
            result = result * x
    return result


class EvaluationMatrix:
    """Values of a monomial family at a point set: rows are points,
    columns are monomials in ascending term order."""

    __slots__ = ("points", "columns", "rows")

    def __init__(self, points, columns, rows):
        self.points = points
        self.columns = columns
        self.rows = rows


def evaluation_matrix(points, monomials, order: TermOrder = DEGLEX) -> EvaluationMatrix:
    points = list(points)
    columns = sorted(monomials, key=order.key)
    rows = [[mono_eval(m, p) for m in columns] for p in points]
    return EvaluationMatrix(tuple(points), tuple(columns), rows)


def row_echelon(rows, field):
    """Reduced row echelon form of a copy of `rows`.

    Pivoting takes the first row with a nonzero entry.  Returns
    (echelon_rows, pivot_columns); rows are scaled to pivot 1 and fully
    reduced above and below.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def block_factors(sizes, embedding, gap=0):
    """The linear factors (variable position, root) of a block polynomial:
    block j holds the next sizes[j] points t of [q], as factors
    (x_j - i(t)), and gap points are passed over after each block."""
    factors, t = [], 0
    for j, size in enumerate(sizes):
        factors += [(j, x) for x in embedding.images[t:t + size]]
        t += size + gap
    return factors


def reference_expand(field, n, factors):
    """The product of the factors (x_j - t), one Polynomial product each."""
    result = Polynomial.one(field, n)
    for j, t in factors:
        result = result * (Polynomial.variable(field, n, j) - Polynomial.constant(field, n, t))
    return result
