"""o-module linear algebra over truncated Laurent series.

Columns are lists of LaurentScalar.  The workhorse is a column echelon
form over the valuation ring o = k[[t]]: column operations are
unimodular over o (swaps, unit scalings, adding o-multiples), so the
o-span of the columns is preserved.  Pivots are chosen by global
minimal valuation, which keeps every quotient inside o.
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

    @property
    def rank(self):
        return len(self.cols)

    def reduce_vector(self, vec):
        """Reduce vec modulo the column span; returns (coeffs, residual)."""
        v = list(vec)
        coeffs = []
        for col, (row, order) in zip(self.cols, self.pivots):
            c = v[row].shift(-order)
            coeffs.append(c)
            if not c.is_zero():
                v = [a - c * b for a, b in zip(v, col)]
        return coeffs, v

    def contains(self, vec):
        """o-membership of vec in the span (PrecisionError if blurry)."""
        coeffs, residual = self.reduce_vector(vec)
        for c in coeffs:
            if not c.is_zero() and c.order < 0:
                return False
        for x in residual:
            if not x.is_zero():
                return False
            if x.prec is not INF and x.prec < PRECISION_FLOOR:
                raise PrecisionError("membership residual below precision floor")
        return True


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


def kernel_columns(matrix_cols):
    """Right-kernel basis of the matrix with the given columns, as
    coefficient vectors over the original column index set."""
    _, _, null = column_echelon(matrix_cols, track=True)
    return null


def matrix_columns(mat):
    return [[mat.rows[i][j] for i in range(mat.n)] for j in range(mat.n)]


def preimage_lattice(kcols, exps):
    """Basis of {x in F^d : sum x_k K_k lies in the monomial lattice
    with exponents exps}, as d-dimensional columns.

    Requires the K columns to be F-independent.
    """
    d = len(kcols)
    scaled = []
    for col in kcols:
        scaled.append([entry.shift(-exps[row]) for row, entry in enumerate(col)])
    ech, expr, null = column_echelon(scaled, track=True)
    if null:
        raise PrecisionError("preimage of dependent columns")
    out = []
    for coeff_col, (_, order) in zip(expr, ech.pivots):
        out.append([c.shift(-order) for c in coeff_col])
    assert len(out) == d
    return out


def combine(kcols, coeff_col):
    """sum_k coeff_col[k] * kcols[k] as an ambient column."""
    n = len(kcols[0])
    out = [LaurentScalar.zero() for _ in range(n)]
    for c, col in zip(coeff_col, kcols):
        if not c.is_zero():
            out = [a + c * b for a, b in zip(out, col)]
    return out
