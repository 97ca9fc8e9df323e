"""Exact dense linear algebra over a Field (desk scale, deterministic).

Pivoting always takes the first row with a nonzero entry, so results are
byte-stable; exact fields make pivot choice a determinism concern only.
"""

from .field import Field


def row_echelon(rows, field: Field):
    """In-place-style reduced row echelon form of a copy of `rows`.

    Returns (echelon_rows, pivot_columns); rows are scaled to pivot 1
    and fully reduced above and below.
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


def nullspace_vector(rows, ncols: int, field: Field):
    """First kernel vector of the column space, or None if full column rank.

    Deterministic: the free variable is the first non-pivot column, set
    to 1; pivot variables are read off the reduced echelon form.
    """
    echelon, pivots = row_echelon(rows, field)
    pivot_set = set(pivots)
    free = next((c for c in range(ncols) if c not in pivot_set), None)
    if free is None:
        return None
    vec = [field.zero] * ncols
    vec[free] = field.one
    for r, c in enumerate(pivots):
        if c < free:
            vec[c] = -echelon[r][free]
    return vec


def eliminate(vec, pivot_rows):
    """Reduce vec against rows normalized to leading 1 at their pivot.

    pivot_rows: list of (pivot_index, row).  Returns the residual vector.
    """
    v = list(vec)
    for p, row in pivot_rows:
        c = v[p]
        if not c.is_zero:
            v = [a - c * b for a, b in zip(v, row)]
    return v
