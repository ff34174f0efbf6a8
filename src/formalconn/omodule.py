"""o-module linear algebra over truncated Laurent series.

Columns are lists of LaurentScalar.  The workhorse is a column echelon
form over the valuation ring o = k[[t]]: column operations are
unimodular over o (swaps, unit scalings, adding o-multiples), so the
o-span of the columns is preserved.  Pivots are chosen by global
minimal valuation, which keeps every quotient inside o.

No library path calls it; it stays, loaded by the package, while the
benchmark's span recorder wraps it by name (ROADMAP item 1).
"""

from .errors import PrecisionError
from .series import INF, LaurentScalar, PRECISION_FLOOR


def col_precision_floor_ok(col):
    for c in col:
        if c.is_zero() and c.prec is not INF and c.prec < PRECISION_FLOOR:
            return False
    return True


class Echelon:
    """Result of an o-column echelon: basis columns with pivot data.

    pivots[k] = (row, order): column k has entry exactly t^order at the
    pivot row, zeros at the pivot rows of earlier columns, and all
    other entries of order >= order.
    """

    def __init__(self, cols, pivots):
        self.cols = cols
        self.pivots = pivots


def column_echelon(columns, track=False):
    """o-column echelon of the given columns.

    With ``track=True`` also returns, per output basis column and per
    discarded (dependent) column, its expression in the input columns:
    returns (Echelon, basis_expr, null_expr) where each expr is a list
    of coefficient columns over the inputs.  Dependent columns yield
    elements of the right kernel of the input matrix.
    """
    work = [list(c) for c in columns]
    ncols = len(work)
    n = len(work[0]) if work else 0
    exprs = None
    if track:
        exprs = [[LaurentScalar.one() if i == j else LaurentScalar.zero()
                  for i in range(ncols)] for j in range(ncols)]
    alive = list(range(ncols))
    out_cols, out_pivots, out_expr = [], [], []
    null_expr = []
    used_rows = set()
    while alive:
        best = None
        for ci in alive:
            for r in range(n):
                if r in used_rows:
                    continue
                entry = work[ci][r]
                if not entry.is_zero():
                    key = (entry.order, r, ci)
                    if best is None or key < best:
                        best = key
        if best is None:
            for ci in alive:
                col = work[ci]
                if not col_precision_floor_ok(col):
                    raise PrecisionError("echelon column vanishes below precision floor")
                if track:
                    null_expr.append(exprs[ci])
            break
        order, row, ci = best
        alive.remove(ci)
        pivot = work[ci][row]
        scale = pivot.inverse().shift(order)  # makes the pivot exactly t^order
        work[ci] = [x * scale for x in work[ci]]
        work[ci][row] = LaurentScalar.t_power(order)
        if track:
            exprs[ci] = [x * scale for x in exprs[ci]]
        for cj in alive:
            entry = work[cj][row]
            if not entry.is_zero():
                f = entry.shift(-order)
                work[cj] = [a - f * b for a, b in zip(work[cj], work[ci])]
                if track:
                    exprs[cj] = [a - f * b for a, b in zip(exprs[cj], exprs[ci])]
        used_rows.add(row)
        out_cols.append(work[ci])
        out_pivots.append((row, order))
        if track:
            out_expr.append(exprs[ci])
    ech = Echelon(out_cols, out_pivots)
    if track:
        return ech, out_expr, null_expr
    return ech
