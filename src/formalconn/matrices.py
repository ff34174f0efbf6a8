"""Matrices of truncated Laurent series and the residue-trace pairing.

A :class:`LaurentMatrix` is a square grid of :class:`LaurentScalar`.
All entries share the matrix's declared precision implicitly via the
min over entries; operations propagate windows entrywise.

The product and the Gauss-Jordan row operations use the fraction-free
kernel of :mod:`formalconn.series` over every ground field, on one
integer ring of :mod:`formalconn.linalg` for all the entries: each
output entry is one sum of ``ring.convolve`` over a common denominator,
written once by ``ring.scalar``.  A product p M q with constant p and q
(:func:`constant_product`) reads M once into an :class:`IntMatrix`
(integer form), multiplies there and writes each entry once; the slope
descent keeps its matrix in that form across its rounds and runs the
same kernel, :meth:`IntMatrix.times_constants`, on constants that are
integer rows over one denominator.  It takes p M and then (p M) q and
divides out the content with one gcd, so an IntMatrix is canonical and
the descent conjugates by den g and (den g)^-1, where den cancels.
"""

from fractions import Fraction

from .errors import ParseError, PrecisionError, SingularGauge
from .linalg import read_matrix, ring_of
from .scalars import Ext
from .series import (INF, LaurentScalar, from_ring_form, mul_prec, residue, ring_form,
                     ring_of_series)


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

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def agrees(self, other, through=None):
        return all(a.agrees(b, through)
                   for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def inverse(self, digits=None):
        """Exact truncated inverse by Gauss-Jordan with valuation
        pivoting.  Raises SingularGauge when no unit pivot exists.

        Each pivot that is not an exact monomial is inverted to
        ``digits`` t-adic digits, never more than its own window (see
        :meth:`LaurentScalar.inverse`); by default to that window, or to
        the session default when the pivot is exact."""
        n = self.n
        ring = ring_of_series([x for row in self.rows for x in row])
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
            pivot_form = ring_form(ring, work[c])
            for r in range(n):
                if r != c and not work[r][c].is_zero():
                    work[r] = _sub_multiple(ring, work[r], work[r][c], work[c], pivot_form)
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
    """Rows of the product of two square grids of series, over one ring.
    The window of an entry is the least product window over the pairs in
    its sum that are not exactly zero."""
    n = len(a_rows)
    b_cols = list(zip(*b_rows))
    ring = ring_of_series([x for rows in (a_rows, b_rows) for row in rows for x in row])
    a_forms = [ring_form(ring, r) for r in a_rows]
    b_forms = [ring_form(ring, c) for c in b_cols]
    # the support of each row and column: its entries not exactly zero
    b_supports = [{k for k in range(n) if not _exact_zero(c[k])} for c in b_cols]
    out = []
    for a_row, (da, a_nums) in zip(a_rows, a_forms):
        a_support = [k for k in range(n) if not _exact_zero(a_row[k])]
        row = []
        for b_col, (db, b_nums), b_support in zip(b_cols, b_forms, b_supports):
            pairs = [k for k in a_support if k in b_support]
            prec = min((mul_prec(a_row[k], b_col[k]) for k in pairs), default=INF)
            acc = {}
            for k in pairs:
                ring.convolve(acc, a_nums[k], b_nums[k], prec)
            row.append(from_ring_form(ring, acc, da * db, prec))
        out.append(row)
    return out


def constant_product(p, m, q=None):
    """The series matrix p m q for constant ground-field matrices p and q
    (lists of rows; q None for the identity), with the values and
    windows of the products LaurentMatrix.from_scalar_matrix(p) * m *
    from_scalar_matrix(q): the window of entry (i, j) is the least
    window of m[k][l] over the pairs with p[i][k] and q[l][j] nonzero.

    m is read once into integer form, in the ring of its entries or of
    the constants', multiplied there by :meth:`IntMatrix.times_constants`
    (the kernel that the slope descent runs on every round) and written
    once, one canonical value per coefficient."""
    mat = IntMatrix.read(m)
    ring = ring_of(p, q or (), base=mat.ring)
    if ring is not mat.ring:
        mat = IntMatrix(mat.n, mat.den, ring, [{k: ring.const(v) for k, v in f.items()}
                                               for f in mat.forms], mat.precs)
    return mat.times_constants(read_matrix(ring, p),
                               None if q is None else read_matrix(ring, q)).write()


class IntMatrix:
    """A series matrix in integer form: one denominator ``den``, the
    integer ring ``ring`` of :mod:`formalconn.linalg`, and per entry, in
    row-major order, the dict from its exponents to ring elements (its
    coefficients times den) and its window.  No dict holds a zero, so an
    entry is zero to its window exactly when its dict is empty."""

    __slots__ = ("n", "den", "ring", "forms", "precs")

    def __init__(self, n, den, ring, forms, precs):
        self.n = n
        self.den = den
        self.ring = ring
        self.forms = forms
        self.precs = precs

    @classmethod
    def read(cls, m):
        entries = [x for row in m.rows for x in row]
        ring = ring_of_series(entries)
        den, forms = ring_form(ring, entries)
        return cls(m.n, den, ring, forms, [x.prec for x in entries])

    @classmethod
    def identity(cls, n, ring):
        return cls(n, 1, ring, [{0: ring.one} if i == j else {} for i in range(n)
                                for j in range(n)], [INF] * (n * n))

    def write(self):
        """The LaurentMatrix, one canonical value per coefficient."""
        n, den, ring = self.n, self.den, self.ring
        return LaurentMatrix([[from_ring_form(ring, self.forms[i * n + j], den,
                                              self.precs[i * n + j]) for j in range(n)]
                              for i in range(n)])

    def times_constants(self, p, q=None):
        """p self q for constant matrices p and q, each given as (den,
        rows) with rows of elements of self's ring (q None for the
        identity), with the windows of :func:`constant_product`: p self
        and then (p self) q, in row-major order, each entry one
        ``ring.scaled_sums`` over its nonzero constants.  One gcd of the
        denominator and every numerator then divides out their content:
        the result is canonical, whatever factor p and q share with their
        denominators, and the numbers do not grow with repeated products."""
        n, ring = self.n, self.ring
        den_p, p_rows = p
        den = den_p * self.den
        # entry (i, l) of p y sums p[i][k] y[k][l]: the pairs (p[i][k], k n)
        # at base l; entry (i, j) of y q sums y[i][l] q[l][j]: the pairs
        # (q[l][j], l) at base i n
        left = [[(x, k * n) for k, x in enumerate(row) if x] for row in p_rows]
        forms, precs = _sums(ring, self.forms, self.precs,
                             [(terms, l) for terms in left for l in range(n)])
        if q is not None:
            den_q, q_rows = q
            right = [[(x, l) for l, x in enumerate(col) if x] for col in zip(*q_rows)]
            forms, precs = _sums(ring, forms, precs,
                                 [(terms, i) for i in range(0, n * n, n) for terms in right])
            den *= den_q
        content = ring.content([ring.const(den)] + [v for f in forms for v in f.values()])
        if content > 1:
            forms = [{k: ring.exact_div(v, content) for k, v in f.items()} for f in forms]
            den //= content
        return IntMatrix(n, den, ring, forms, precs)


def _sums(ring, forms, precs, entries):
    """(forms, windows) of the product of a series matrix y in integer
    form and a constant, given per entry as (terms, base) for
    ``ring.scaled_sums``: each entry keeps the least window of the
    y[base + k] it reads."""
    exact = all(w is INF for w in precs)
    entries = [(terms, base, INF if exact else min((precs[base + k] for _, k in terms),
                                                   default=INF))
               for terms, base in entries]
    return ring.scaled_sums(forms, entries), [w for _, _, w in entries]


def _sub_multiple(ring, xs, f, ys, ys_form):
    """The row [x - f * y for x, y in zip(xs, ys)]; ``ys_form`` is
    ``ring_form(ring, ys)``."""
    dx, (f_nums, *x_nums) = ring_form(ring, [f] + xs)
    dy, y_nums = ys_form
    # x - f y = (x_num dy - f_num y_num) / (dx dy)
    neg_f = {k: ring.neg(v) for k, v in f_nums.items()}
    out = []
    for x, y, xn, yn in zip(xs, ys, x_nums, y_nums):
        prec = min(x.prec, mul_prec(f, y))
        acc = {k: ring.scale(dy, v) for k, v in xn.items() if k < prec}
        ring.convolve(acc, neg_f, yn, prec)
        out.append(from_ring_form(ring, acc, dx * dy, prec))
    return out


def _exact_zero(a):
    return not a.coeffs and a.prec is INF


def pairing(a, b, nu):
    """The invariant symmetric form <A, B>_nu = Res[Tr(AB) nu]."""
    if a.n != b.n:
        raise ParseError("pairing of mismatched dimensions")
    return residue((a * b).trace(), nu)
