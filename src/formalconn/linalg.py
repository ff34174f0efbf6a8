"""Exact linear algebra over the ground field.

Matrices here are plain lists of lists of field scalars (Fraction, or
Ext over Q(zeta_m); ints are accepted as input).  Every routine reads
its matrices once into integer rows, each row multiplied through by the
common denominator of its entries: over Q an entry is one integer, over
Q(zeta_m) an element of Z[zeta_m] given by its phi(m) power-basis
coordinates, whose products and reciprocals ``GroundField.dot`` and
``GroundField.reciprocal`` take and whose quotients
``GroundField.element`` writes.  These two rings
(:func:`integer_ring`) are the library's one integer encoding of field
values: the series kernel, ``matrices.IntMatrix`` and the level forms
of :mod:`formalconn.torus` compute on them too, series through
``convolve`` and products of series with constants through
``scaled_sums``.

Elimination is fraction-free (after Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22,
1968), in one routine, :func:`_echelon`: with p the pivot of row r in
column c and f the entry of row i there, row_i <- p row_i - f row_r,
and the row is divided by the gcd of its coordinates, where Bareiss
divides by the previous pivot.  No Fraction is built until each pivot
row is divided by its pivot, once, at the end, as x / p = x w / den
with (den, w) = ``ring.reciprocal(p)``, den an int (over Z[zeta_m], the
norm of p), or is kept as integers over one int denominator
(:func:`over_one_den`), as the slope descent does.  A reduced echelon
form is unique, so every routine returns the values that Gauss-Jordan
elimination over the field gives.
"""

import functools
import math
import operator
from fractions import Fraction

from .scalars import Ext

_ZERO = Fraction(0)


class _Integers:
    """Z, for matrices with rational entries: an element is an int."""

    one = 1

    @staticmethod
    def read(row):
        """(den, elements): the row times the common denominator den of
        its entries."""
        pairs = [x.as_integer_ratio() for x in row]
        den = math.lcm(*(d for _, d in pairs))
        return den, [a * (den // d) for a, d in pairs]

    @staticmethod
    def const(k):
        return k

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    scale = mul

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def dot(xs, ys):
        return sum(map(operator.mul, xs, ys))

    @staticmethod
    def convolve(acc, a, b, prec):
        """acc[i + j] += a[i] b[j] for exponents i + j < prec, over dicts
        from exponents to elements."""
        for i, x in a.items():
            lim = prec - i
            for j, y in b.items():
                if j < lim:
                    k = i + j
                    acc[k] = acc.get(k, 0) + x * y

    @staticmethod
    def scaled_sums(forms, entries):
        """Per entry (terms, base, prec), the form of the sum of c
        forms[base + k] over the pairs (c, k) of terms, c nonzero, below
        exponent prec, with no zero coefficient (a form is a dict from
        exponents to elements)."""
        out = []
        for terms, base, prec in entries:
            acc = {}
            for c, k in terms:
                f = forms[base + k]
                if prec != math.inf:
                    f = {e: v for e, v in f.items() if e < prec}
                for e, v in f.items():
                    acc[e] = acc[e] + c * v if e in acc else c * v
            out.append(acc if all(acc.values()) else {e: v for e, v in acc.items() if v})
        return out

    @staticmethod
    def exact_div(a, k):
        return a // k

    @staticmethod
    def content(xs):
        """The gcd of the coordinates of the elements xs."""
        return math.gcd(*xs)

    @staticmethod
    def primitive(xs):
        """xs divided by its content."""
        g = math.gcd(*xs)
        return [x // g for x in xs] if g > 1 else xs

    @staticmethod
    def combine(p, xs, f, ys):
        """p xs - f ys, divided by its content."""
        return _Integers.primitive([p * x - f * y for x, y in zip(xs, ys)])

    @staticmethod
    def scalar(a, den):
        """The field value a / den for an element a and an int den."""
        return Fraction(a, den) if a else _ZERO

    @staticmethod
    def reciprocal(p):
        """(den, w) with 1/p = w/den for a nonzero element p and a
        positive int den: |p| and the sign of p."""
        return (p, 1) if p > 0 else (-p, -1)


class _CyclotomicIntegers:
    """Z[zeta_m], for matrices with an Ext entry: an element is the tuple
    of its integer power-basis coordinates with trailing zeros dropped,
    so that zero is () and tests false, as the int 0 does over Q."""

    one = (1,)

    def __init__(self, field):
        self.field = field

    def read(self, row):
        coords = [x.coords if isinstance(x, Ext) else (x,) for x in row]
        den = math.lcm(*(c.denominator for cs in coords for c in cs))
        return den, [_trim([c.numerator * (den // c.denominator) for c in cs])
                     for cs in coords]

    @staticmethod
    def const(k):
        return (k,) if k else ()

    @staticmethod
    def add(a, b):
        if len(a) < len(b):
            a, b = b, a
        return _trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def mul(self, a, b):
        return self.dot([a], [b])

    @staticmethod
    def neg(a):
        return tuple(-c for c in a)

    def dot(self, xs, ys):
        return _trim(self.field.dot(xs, ys))

    def convolve(self, acc, a, b, prec):
        # one dot, so one fold, per output exponent
        terms = {}
        for i, x in a.items():
            lim = prec - i
            for j, y in b.items():
                if j < lim:
                    k = i + j
                    if k not in terms:
                        terms[k] = ([acc[k]], [self.one]) if k in acc else ([], [])
                    terms[k][0].append(x)
                    terms[k][1].append(y)
        for k, (xs, ys) in terms.items():
            acc[k] = self.dot(xs, ys)

    def scaled_sums(self, forms, entries):
        # every product at one exponent gathered, so one fold per coefficient
        out = []
        for terms, base, prec in entries:
            gathered = {}
            for c, k in terms:
                for e, v in forms[base + k].items():
                    if e < prec:
                        xs, ys = gathered.setdefault(e, ([], []))
                        xs.append(c)
                        ys.append(v)
            sums = ((e, self.dot(xs, ys)) for e, (xs, ys) in gathered.items())
            out.append({e: v for e, v in sums if v})
        return out

    @staticmethod
    def scale(k, a):
        """The element a times the int k."""
        return tuple(k * c for c in a) if k else ()

    @staticmethod
    def exact_div(a, k):
        return tuple(c // k for c in a)

    @staticmethod
    def content(xs):
        return math.gcd(*(c for a in xs for c in a))

    def primitive(self, xs):
        g = self.content(xs)
        return [self.exact_div(a, g) for a in xs] if g > 1 else xs

    def combine(self, p, xs, f, ys):
        return self.primitive([self.add(self.mul(p, x), self.neg(self.mul(f, y)))
                               for x, y in zip(xs, ys)])

    def scalar(self, a, den):
        return self.field.element(a, den)

    def reciprocal(self, p):
        """(den, w) with 1/p = w/den, den the norm of p, a positive int."""
        den, w = self.field.reciprocal(p)
        return den, _trim(w)


def _trim(coords):
    while coords and not coords[-1]:
        coords.pop()
    return tuple(coords)


@functools.cache
def integer_ring(field):
    """The ring whose elements stand for values of ``field`` times a
    denominator: Z over Q, Z[zeta_m] over Q(zeta_m)."""
    return _Integers if field.degree == 1 else _CyclotomicIntegers(field)


def ring_of(*mats, base=_Integers):
    """The integer ring of the given matrices' entries, rows of values;
    ``base`` when every entry is rational."""
    field = next((x.field for mat in mats for row in mat for x in row if isinstance(x, Ext)), None)
    return base if field is None else integer_ring(field)


def read_matrix(ring, mat):
    """(den, rows): the matrix times the common denominator of its
    entries, as integer rows."""
    rows = [ring.read(row) for row in mat]
    den = math.lcm(*(d for d, _ in rows))
    return den, [r if d == den else [ring.scale(den // d, x) for x in r] for d, r in rows]


def _echelon(ring, rows, width):
    """Fraction-free Gauss-Jordan elimination of integer rows over their
    first ``width`` columns.  Returns (rows, pivots): row k <
    len(pivots) has a nonzero pivot in column pivots[k] and zeros in
    every other pivot column; the rows after them are zero in the first
    ``width`` columns.  Each row is a multiple of the corresponding row
    of the reduced echelon form over the field."""
    rows = list(rows)
    pivots = []
    for c in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = ring.combine(p, row, row[c], top)
        pivots.append(c)
    return rows, pivots


def _kernel(ring, rows, width):
    """Integer vectors spanning the right kernel of the integer rows, one
    per free column fc of their echelon form: a multiple of the vector
    that is 1 at fc, 0 at the other free columns and -x/p at the pivot
    column of each row with pivot p and entry x at fc.  fc is the
    vector's last nonzero coordinate, since a row vanishes before its
    pivot."""
    red, pivots = _echelon(ring, rows, width)
    taken = set(pivots)
    zero = ring.const(0)
    out = []
    for fc in range(width):
        if fc in taken:
            continue
        hits = [(pc, row[pc], row[fc]) for row, pc in zip(red, pivots) if row[fc]]
        vec = [zero] * width
        vec[fc] = _product(ring, ring.one, [p for _, p, _ in hits])
        for pc, _, x in hits:
            vec[pc] = ring.neg(_product(ring, x, [p for c, p, _ in hits if c != pc]))
        out.append(ring.primitive(vec))
    return out


def _product(ring, x, factors):
    for f in factors:
        x = ring.mul(x, f)
    return x


def _matmul(ring, a, b):
    """The product of two integer matrices."""
    cols = list(zip(*b))
    return [[ring.dot(row, col) for col in cols] for row in a]


def kernel_flag_basis(ring, pat):
    """Integer columns of a basis adapted to ker(pat) <= ker(pat^2) <=
    ... for a square matrix pat of elements of ``ring``, in which pat is
    block strictly upper triangular; None as soon as a kernel stops
    growing short of the whole space, that is when pat is not nilpotent.
    Round k adds, in order, the vectors of the kernel of pat^k that are
    independent of the basis so far, each a multiple of knullspace's,
    until the basis spans that kernel; the kernel of a zero power is
    spanned by the unit vectors, as knullspace gives them.  A pattern of
    nonzero trace is not nilpotent."""
    n = len(pat)
    zero = ring.const(0)
    if functools.reduce(ring.add, (row[i] for i, row in enumerate(pat)), zero):
        return None
    units = [[ring.one if i == j else zero for i in range(n)] for j in range(n)]
    power = pat
    chosen = []
    echelon = []  # (pivot column, row), rows vanishing before their pivot, by column
    while True:
        found = len(chosen)
        kernel = _kernel(ring, power, n) if any(map(any, power)) else units
        for vec in kernel:
            if len(chosen) == len(kernel):
                break
            rem = vec
            for c, row in echelon:
                if rem[c]:
                    rem = ring.combine(row[c], rem, rem[c], row)
            lead = next((c for c, x in enumerate(rem) if x), None)
            if lead is not None:
                echelon.append((lead, rem))
                echelon.sort(key=lambda cr: cr[0])
                chosen.append(vec)
        if len(chosen) == n:
            return chosen
        if len(chosen) == found:
            return None
        power = _matmul(ring, power, pat)


def _quotients(ring, xs, p):
    """The field values x / p for elements xs and a nonzero element p."""
    den, w = ring.reciprocal(p)
    return [ring.scalar(ring.mul(x, w), den) for x in xs]


def over_one_den(ring, pairs):
    """(den, rows): the vectors xs / p, for pairs (xs, p) of an integer
    vector and a nonzero element, as integer rows over one positive int
    den, each quotient taken through ``ring.reciprocal``."""
    recips = [ring.reciprocal(p) for _, p in pairs]
    den = math.lcm(*(d for d, _ in recips))
    return den, [[ring.mul(x, w) for x in xs] for (xs, _), w in
                 zip(pairs, (ring.scale(den // d, w) for d, w in recips))]


def solve_form(ring, rows, width):
    """The system rows x = b, ``rows`` integer rows over their first
    ``width`` columns, eliminated once for every right-hand side:
    (pivots, den, right, checks).  For an integer vector b the solution
    that ksolve gives, zero at every free column, is right[k] . b / den
    at column pivots[k]; b is consistent iff c . b = 0 for every row c
    of ``checks``, the left kernel.  One fraction-free elimination of
    [rows | 1] keeps the row transform; when every column is a pivot,
    right / den is the inverse."""
    zero = ring.const(0)
    red, pivots = _echelon(ring, [list(row) + [ring.one if i == j else zero
                                               for j in range(len(rows))]
                                  for i, row in enumerate(rows)], width)
    den, right = over_one_den(ring, [(row[width:], row[c]) for row, c in zip(red, pivots)])
    return pivots, den, right, [row[width:] for row in red[len(pivots):]]


def kzeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def kmatmul(a, b):
    """The product a b: the rows of a and the columns of b are read over
    their own denominators, and each entry is normalised once."""
    if not a:
        return []
    ring = ring_of(a, b)
    a_rows = [ring.read(row) for row in a]
    b_cols = [ring.read(col) for col in zip(*b)]
    return [[ring.scalar(ring.dot(ra, cb), da * db) for db, cb in b_cols]
            for da, ra in a_rows]


def rref(mat):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    cols = len(mat[0]) if mat else 0
    ring = ring_of(mat)
    red, pivots = _echelon(ring, [ring.read(row)[1] for row in mat], cols)
    zero = ring.scalar(ring.const(0), 1)
    return ([_quotients(ring, row, row[c]) for row, c in zip(red, pivots)] +
            [[zero] * cols for _ in red[len(pivots):]]), pivots


def knullspace(mat):
    """Basis of the right kernel, as a list of column vectors: one per
    free column of the echelon form, 1 there and 0 at the other free
    columns."""
    cols = len(mat[0]) if mat else 0
    ring = ring_of(mat)
    return [_quotients(ring, vec, next(x for x in reversed(vec) if x))
            for vec in _kernel(ring, [ring.read(row)[1] for row in mat], cols)]


def ksolve(mat, rhs):
    """One solution of mat @ x = rhs, or None if inconsistent: the one
    that is zero at every free column."""
    cols = len(mat[0]) if mat else 0
    ring = ring_of(mat, [rhs])
    red, pivots = _echelon(ring, [ring.read(list(row) + [b])[1] for row, b in zip(mat, rhs)],
                           cols)
    if any(row[cols] for row in red[len(pivots):]):
        return None
    x = [ring.scalar(ring.const(0), 1)] * cols
    for row, pc in zip(red, pivots):
        x[pc] = _quotients(ring, [row[cols]], row[pc])[0]
    return x


def kinverse(mat):
    """The inverse matrix, or None if mat is singular."""
    ring = ring_of(mat)
    den, rows = read_matrix(ring, mat)
    pivots, inv_den, inv, _ = solve_form(ring, rows, len(rows))
    return None if len(pivots) < len(rows) else \
        [[ring.scalar(ring.scale(den, x), inv_den) for x in row] for row in inv]


def charpoly(mat):
    """Monic characteristic polynomial (ascending coefficients) by the
    Faddeev-LeVerrier recurrence on B = D mat, D the common denominator
    of the entries: B is integral, so is every coefficient c_k of its
    characteristic polynomial, and the recurrence divides by k exactly;
    mat's coefficient of x^(n-k) is c_k / D^k."""
    n = len(mat)
    ring = ring_of(mat)
    den, b = read_matrix(ring, mat)
    coeffs = [None] * n + [ring.scalar(ring.one, 1)]
    m = b
    for k in range(1, n + 1):
        prev = b if k == 1 else _matmul(ring, b, m)
        trace = ring.const(0)
        for i in range(n):
            trace = ring.add(trace, prev[i][i])
        c = ring.exact_div(ring.neg(trace), k)
        coeffs[n - k] = ring.scalar(c, den ** k)
        m = [[ring.add(x, c) if i == j else x for j, x in enumerate(row)]
             for i, row in enumerate(prev)]
    return coeffs
