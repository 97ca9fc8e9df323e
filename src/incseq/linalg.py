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

