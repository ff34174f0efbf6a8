"""Matrices of truncated Laurent series and the residue-trace pairing.

A :class:`LaurentMatrix` is a square grid of :class:`LaurentScalar`.
All entries share the matrix's declared precision implicitly via the
min over entries; operations propagate windows entrywise.

The product and the Gauss-Jordan row operations use the fraction-free
kernel of :mod:`formalconn.series` over every ground field: each output
entry is one sum of integer convolutions of power-basis coordinates over
a common denominator, folded back by the cyclotomic reduction table and
normalised once.  A product p M q with constant p and q
(:func:`constant_product`) keeps p M in integer coordinates, so each of
its entries is normalised once as well.
"""

from fractions import Fraction

from .errors import ParseError, PrecisionError, SingularGauge
from .scalars import Ext
from .series import (INF, LaurentScalar, coord_product, fold_coords, from_coord_form,
                     int_form, mul_prec, residue)


class LaurentMatrix:
    __slots__ = ("n", "rows")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise ParseError("matrix must be square")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n, prec=INF):
        return cls([[LaurentScalar.zero(prec) for _ in range(n)] for _ in range(n)])

    @classmethod
    def identity(cls, n):
        return cls([[LaurentScalar.one() if i == j else LaurentScalar.zero()
                     for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalar_matrix(cls, kmat):
        """Lift a constant ground-field matrix."""
        return cls([[LaurentScalar.from_scalar(v) if v else LaurentScalar.zero()
                     for v in row] for row in kmat])

    @classmethod
    def scalar(cls, n, series):
        return cls([[series if i == j else LaurentScalar.zero()
                     for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        return LaurentMatrix([[a + b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return LaurentMatrix([[a - b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return LaurentMatrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, LaurentMatrix):
            return LaurentMatrix(_product_rows(self.rows, other.rows))
        if isinstance(other, (LaurentScalar, int, Fraction, Ext)):
            return LaurentMatrix([[a * other for a in r] for r in self.rows])
        return NotImplemented

    __rmul__ = __mul__

    def matvec(self, vec):
        return [sum((self.rows[i][j] * vec[j] for j in range(self.n)),
                    LaurentScalar.zero()) for i in range(self.n)]

    def power(self, k):
        assert k >= 0
        out = LaurentMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def shift(self, k):
        return LaurentMatrix([[a.shift(k) for a in r] for r in self.rows])

    def truncate(self, prec):
        return LaurentMatrix([[a.truncate(prec) for a in r] for r in self.rows])

    def trace(self):
        acc = LaurentScalar.zero()
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def tau(self):
        """Apply t d/dt entrywise."""
        return LaurentMatrix([[a.tau() for a in r] for r in self.rows])

    def precision(self):
        return min((a.prec for r in self.rows for a in r), default=INF)

    def min_order(self):
        return min((a.order for r in self.rows for a in r), default=INF)

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def agrees(self, other, through=None):
        return all(a.agrees(b, through)
                   for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def coeff_matrix(self, k):
        return [[a.coeff(k) for a in r] for r in self.rows]

    def inverse(self, digits=None):
        """Exact truncated inverse by Gauss-Jordan with valuation
        pivoting.  Raises SingularGauge when no unit pivot exists.

        Each pivot that is not an exact monomial is inverted to
        ``digits`` t-adic digits, never more than its own window (see
        :meth:`LaurentScalar.inverse`); by default to that window, or to
        the session default when the pivot is exact."""
        n = self.n
        work = [[self.rows[i][j] for j in range(n)] +
                [LaurentScalar.one() if i == j else LaurentScalar.zero() for j in range(n)]
                for i in range(n)]
        for c in range(n):
            piv, piv_ord = None, None
            for r in range(c, n):
                entry = work[r][c]
                if not entry.is_zero():
                    if piv_ord is None or entry.order < piv_ord:
                        piv, piv_ord = r, entry.order
            if piv is None:
                if any(work[r][c].prec is not INF for r in range(c, n)):
                    raise PrecisionError("pivot undetectable at available precision")
                raise SingularGauge("matrix is singular")
            work[c], work[piv] = work[piv], work[c]
            pivot = work[c][c]
            inv_piv = pivot.inverse(digits)
            work[c] = [x * inv_piv for x in work[c]]
            pivot_form = int_form(work[c])
            for r in range(n):
                if r != c and not work[r][c].is_zero():
                    work[r] = _sub_multiple(work[r], work[r][c], work[c], pivot_form)
        return LaurentMatrix([row[n:] for row in work])

    def __repr__(self):
        body = ",\n ".join("[" + ", ".join(repr(a) for a in r) + "]" for r in self.rows)
        return "LaurentMatrix(\n %s)" % body

    # -- serialization -------------------------------------------------

    def to_json(self):
        return [[a.to_json() for a in r] for r in self.rows]

    @classmethod
    def from_json(cls, data, field, prec=INF):
        if not isinstance(data, list) or not data or \
                not all(isinstance(r, list) for r in data):
            raise ParseError("matrix must be a nonempty list of rows")
        rows = []
        for r in data:
            rows.append([LaurentScalar.from_json(e, field, prec) for e in r])
        return cls(rows)


def _product_rows(a_rows, b_rows):
    """Rows of the product of two square grids of series.  The window of
    an entry is the least product window over the pairs in its sum that
    are not exactly zero."""
    n = len(a_rows)
    b_cols = list(zip(*b_rows))
    a_forms = [int_form(r) for r in a_rows]
    b_forms = [int_form(c) for c in b_cols]
    out = []
    for a_row, (da, fa, a_coords) in zip(a_rows, a_forms):
        row = []
        for b_col, (db, fb, b_coords) in zip(b_cols, b_forms):
            pairs = [k for k in range(n)
                     if not _exact_zero(a_row[k]) and not _exact_zero(b_col[k])]
            prec = min((mul_prec(a_row[k], b_col[k]) for k in pairs), default=INF)
            acc = coord_product([(a_coords[k], b_coords[k]) for k in pairs], prec)
            row.append(from_coord_form(acc, da * db, prec, fa or fb))
        out.append(row)
    return out


def constant_product(p, m, q=None):
    """The series matrix p m q for constant ground-field matrices p and q
    (lists of rows; q None for the identity), with the values and
    windows of the products LaurentMatrix.from_scalar_matrix(p) * m *
    from_scalar_matrix(q): the window of entry (i, j) is the least
    window of m[k][l] over the pairs with p[i][k] and q[l][j] nonzero.

    The constants' numerators are written over one denominator and m in
    series.int_form, so p m stays in integer coordinates and each output
    entry is normalised once, through from_coord_form."""
    n = m.n
    entries = [x for row in m.rows for x in row]
    consts = [LaurentScalar._raw({0: c} if c else {}, INF)
              for rows in (p, q or ()) for row in rows for c in row]
    den_c, field_c, c_forms = int_form(consts)
    den_m, field_m, m_forms = int_form(entries)
    field = field_c or field_m
    den = den_c * den_m
    nz_p = [[k for k in range(n) if p[i][k]] for i in range(n)]
    pm = []
    for i in range(n):
        row = []
        for l in range(n):
            prec = min((entries[k * n + l].prec for k in nz_p[i]), default=INF)
            row.append((prec, coord_product([(c_forms[i * n + k], m_forms[k * n + l])
                                             for k in nz_p[i]], prec)))
        pm.append(row)
    if q is None:
        return LaurentMatrix([[from_coord_form(acc, den, prec, field) for prec, acc in row]
                              for row in pm])
    for row in pm:
        for _, acc in row:
            if len(acc) > 1:
                fold_coords(acc, field)
    q_forms = c_forms[n * n:]
    nz_q = [[l for l in range(n) if q[l][j]] for j in range(n)]
    out = []
    for row in pm:
        out_row = []
        for j in range(n):
            prec = min((row[l][0] for l in nz_q[j]), default=INF)
            acc = coord_product([(row[l][1], q_forms[l * n + j]) for l in nz_q[j]], prec)
            out_row.append(from_coord_form(acc, den * den_c, prec, field))
        out.append(out_row)
    return LaurentMatrix(out)


def _sub_multiple(xs, f, ys, ys_form):
    """The row [x - f * y for x, y in zip(xs, ys)]; ``ys_form`` is
    ``int_form(ys)``."""
    dx, fx, (f_coords, *x_coords) = int_form([f] + xs)
    dy, fy, y_coords = ys_form
    # x - f y = (x_num dy - f_num y_num) / (dx dy), coordinate by coordinate
    neg_f = [{k: -v for k, v in c.items()} for c in f_coords]
    out = []
    for x, y, xc, yc in zip(xs, ys, x_coords, y_coords):
        prec = min(x.prec, mul_prec(f, y))
        acc = [{k: v * dy for k, v in c.items() if k < prec} for c in xc]
        coord_product([(neg_f, yc)], prec, acc)
        out.append(from_coord_form(acc, dx * dy, prec, fx or fy))
    return out


def _exact_zero(a):
    return not a.coeffs and a.prec is INF


def pairing(a, b, nu):
    """The invariant symmetric form <A, B>_nu = Res[Tr(AB) nu]."""
    if a.n != b.n:
        raise ParseError("pairing of mismatched dimensions")
    return residue((a * b).trace(), nu)
