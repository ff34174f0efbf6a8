"""Matrices of truncated Laurent series and the residue-trace pairing.

A :class:`LaurentMatrix` is a square grid of :class:`LaurentScalar`.
All entries share the matrix's declared precision implicitly via the
min over entries; operations propagate windows entrywise.

The product and the Gauss-Jordan row operations use the fraction-free
kernel of :mod:`formalconn.series` over every ground field: each output
entry is one sum of integer convolutions of power-basis coordinates over
a common denominator, folded back and written once by the ground field
(``GroundField.fold_dicts`` and ``GroundField.element``).  A product
p M q with constant p and q (:func:`constant_product`) reads M once
into an :class:`IntMatrix` (integer coordinate form), multiplies there
and writes each entry once; the slope descent keeps its matrix and
gauge in that form across its rounds and runs the same kernel,
:meth:`IntMatrix.times_constants`.
"""

import math
from fractions import Fraction

from .errors import ParseError, PrecisionError, SingularGauge
from .scalars import Ext
from .series import (INF, LaurentScalar, coord_product, from_coord_form, int_form, mul_prec,
                     residue)


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

    m is read once into integer coordinate form, multiplied there by
    :meth:`IntMatrix.times_constants` (the kernel that the slope descent
    runs on every round) and written once, one canonical Fraction per
    output coordinate."""
    return IntMatrix.read(m).times_constants(p, q).write()


_ZERO = Fraction(0)


class IntMatrix:
    """A series matrix in integer coordinate form: one denominator
    ``den``, and per entry, in row-major order, the integer numerator
    dicts of its power-basis coordinates (as :func:`series.int_form`
    writes them: one dict for rational entries, phi(m) dicts for entries
    in Q(zeta_m)) and its window.  No numerator dict holds a zero, so
    an entry is zero to its window exactly when every dict is empty;
    such an entry has the one dict of a rational entry."""

    __slots__ = ("n", "den", "field", "forms", "precs")

    def __init__(self, n, den, field, forms, precs):
        self.n = n
        self.den = den
        self.field = field
        self.forms = forms
        self.precs = precs

    @classmethod
    def read(cls, m):
        entries = [x for row in m.rows for x in row]
        den, field, forms = int_form(entries)
        return cls(m.n, den, field, forms, [x.prec for x in entries])

    @classmethod
    def identity(cls, n):
        return cls(n, 1, None, [[{0: 1}] if i == j else [{}] for i in range(n) for j in range(n)],
                   [INF] * (n * n))

    def write(self):
        """The LaurentMatrix, one canonical Fraction per coordinate."""
        n, den, field = self.n, self.den, self.field
        return LaurentMatrix([[from_coord_form(self.forms[i * n + j], den, self.precs[i * n + j],
                                               field) for j in range(n)] for i in range(n)])

    def coeff(self, idx, k):
        """The t^k coefficient of entry ``idx`` (row-major), typed as
        :meth:`write` types it."""
        nums = [c.get(k, 0) for c in self.forms[idx]]
        if not any(nums):
            return _ZERO
        if len(nums) == 1:
            return Fraction(nums[0], self.den)
        return self.field.element(nums, self.den)

    def times_constants(self, p, q=None):
        """p self q for constant ground-field matrices p and q (lists of
        rows; q None for the identity), with the windows of
        :func:`constant_product`.  The constants' numerators are written
        over one denominator, so p self stays in integer coordinates, and
        (p self) q is taken as the transpose of q^T (p self)^T; the result
        is divided by the content of its numerators and denominator, so
        the numbers do not grow with repeated products."""
        n = self.n
        den_c, field_c, c_forms = int_form([LaurentScalar._raw({0: c} if c else {}, INF)
                                            for rows in (p, q or ()) for row in rows
                                            for c in row])
        field = field_c or self.field
        p_rows = [[(k, c_forms[i * n + k]) for k in range(n) if p[i][k]] for i in range(n)]
        forms, precs = _left_product(n, p_rows, self.forms, self.precs, field)
        den = den_c * self.den
        if q is not None:
            q_forms = c_forms[n * n:]
            qt_rows = [[(l, q_forms[l * n + j]) for l in range(n) if q[l][j]] for j in range(n)]
            forms, precs = _left_product(n, qt_rows, _transposed(n, forms),
                                         _transposed(n, precs), field)
            forms, precs = _transposed(n, forms), _transposed(n, precs)
            den *= den_c
        return IntMatrix._primitive(n, den, field, forms, precs)

    @staticmethod
    def _primitive(n, den, field, accs, precs):
        """The form of the folded coordinate sums ``accs`` over ``den``:
        zeros dropped, an entry with no coefficient left as one empty
        dict, and every numerator and the denominator divided by their
        gcd."""
        forms = []
        content = den
        for acc in accs:
            acc = [c if all(c.values()) else {k: v for k, v in c.items() if v} for c in acc]
            if len(acc) > 1 and not any(acc):
                acc = [{}]
            if content > 1:
                for c in acc:
                    content = math.gcd(content, *c.values())
            forms.append(acc)
        if content > 1:
            forms = [[{k: v // content for k, v in c.items()} for c in acc] for acc in forms]
            den //= content
        return IntMatrix(n, den, field, forms, precs)


def _left_product(n, const_rows, forms, precs, field):
    """(forms, windows) of the product c y of a constant matrix c and a
    series matrix y in integer coordinates, coordinates of degree >=
    phi(m) folded back: ``const_rows[i]`` lists (k, coordinate dicts)
    for the nonzero c[i][k], each dict holding exponent 0 alone; entry
    (i, l) keeps the least window of y[k][l] over those k, and its
    exponents below it.  Over Q every entry has one coordinate, and each
    constant scales a dict in a plain loop."""
    exact = all(w is INF for w in precs)
    out, out_precs = [], []
    for terms in const_rows:
        row_precs = [INF] * n if exact else \
            [min((precs[k * n + l] for k, _ in terms), default=INF) for l in range(n)]
        if field is None:
            row = [{} for _ in range(n)]
            for k, (x,) in terms:
                x = x[0]
                for l, (y,) in enumerate(forms[k * n:k * n + n]):
                    dst, prec = row[l], row_precs[l]
                    if not dst:
                        row[l] = {e: x * v for e, v in y.items() if e < prec}
                        continue
                    for e, v in y.items():
                        if e < prec:
                            dst[e] = dst.get(e, 0) + x * v
            out.extend([d] for d in row)
        else:
            for l in range(n):
                acc = coord_product([(x, forms[k * n + l]) for k, x in terms], row_precs[l])
                field.fold_dicts(acc)
                out.append(acc)
        out_precs.extend(row_precs)
    return out, out_precs


def _transposed(n, flat):
    """The transpose of a row-major n x n list."""
    return [flat[j * n + i] for i in range(n) for j in range(n)]


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
