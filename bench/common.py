"""Shared pieces of the benchmark: paths, seeded formal-type builders,
gauges, and the checks that do not go through the library's own
filtration code.

Every builder takes a ``random.Random`` so that the same seed gives the
same inputs.  Shapes (rank n, ramification e, depth r, field) are fixed
by each workload; the seed picks coefficients and gauges only, which
keeps the cost of one pass of a corpus close from seed to seed.
"""

import math
import os
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
TESTS_DIR = os.path.join(ROOT, "tests")

for _path in (SRC_DIR, TESTS_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from formalconn.connections import FormalConnection, gauge_transform  # noqa: E402,F401
from formalconn.formal_types import FormalType  # noqa: E402
from formalconn.linalg import kinverse  # noqa: E402
from formalconn.matrices import LaurentMatrix  # noqa: E402
from formalconn.scalars import get_field, sort_key  # noqa: E402
from formalconn.series import INF, LaurentScalar  # noqa: E402
from formalconn.torus import TorusData  # noqa: E402
from helpers import katz_slope_oracle, random_matrix  # noqa: E402,F401

Q = get_field("Q")
QI = get_field("Q(i)")


class Item:
    """One operation of a corpus.  ``fault`` names the known program
    fault the item exercises ("a" or "b"), or is None."""

    __slots__ = ("id", "label", "payload", "fault")

    def __init__(self, item_id, label, payload, fault=None):
        self.id = item_id
        self.label = label
        self.payload = payload
        self.fault = fault


def _random_coeff(rng, field, lo=-4, hi=4, den=2, imaginary=False):
    re = Fraction(rng.randint(lo, hi), rng.randint(1, den))
    if field is Q:
        return re
    im = Fraction(rng.randint(lo, hi), rng.randint(1, den)) if imaginary else Fraction(0)
    return field.from_coords([re, im])


def random_formal_type(rng, n, e, r, field=Q):
    """A regular formal type of the given shape with seeded coefficients.

    Regularity holds by construction, without the library's test: at
    depth 0 (e = 1) the leading coefficients are pairwise distinct modulo
    Z; at positive depth gcd(r, e) = 1 and the leading coefficients are
    nonzero with pairwise distinct e-th powers (the eigenvalues of
    y = beta^e t^r that separate the blocks).  Over Q(i) the leading
    coefficients carry an imaginary part, so the splitting has to factor
    over Q(i)."""
    if n % e or (r == 0 and e != 1) or (r > 0 and math.gcd(r, e) != 1):
        raise ValueError("no regular formal type of shape %r" % ((n, e, r),))
    leads = []
    while len(leads) < n // e:
        lead = _random_coeff(rng, field, -6, 6, 3 if r else max(3, n + 1),
                              imaginary=field is not Q)
        if r == 0:
            fine = all(not _is_integer(lead - o) for o in leads)
        else:
            fine = lead != 0 and all(lead ** e != o ** e for o in leads)
        if fine:
            leads.append(lead)
    rows = sorted(([lead] + [_random_coeff(rng, field) for _ in range(r)] for lead in leads),
                  key=lambda row: sort_key(row[0]))
    return FormalType(TorusData(e, n // e), r, rows, field)


def _is_integer(x):
    coords = list(x.coords) if hasattr(x, "coords") else [Fraction(x)]
    return all(c == 0 for c in coords[1:]) and coords[0].denominator == 1


def realization(ft):
    """The connection d + A dt/t for the Cartan representative A."""
    return FormalConnection(ft.realization())


def _unipotent(rng, n, depth, lower):
    """1 plus strictly lower (or upper) entries in t Z[t] of degree <= depth."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = {}
            if (j < i) if lower else (j > i):
                coeffs = {k: Fraction(rng.randint(-2, 2)) for k in range(1, depth + 1)}
            elif i == j:
                coeffs = {0: Fraction(1)}
            row.append(LaurentScalar(coeffs))
        rows.append(row)
    return LaurentMatrix(rows)


def _unipotent_inverse(u):
    """(1 + N)^-1 = sum of (-N)^k, k < n, for nilpotent N: a polynomial."""
    n = u.n
    neg_nil = LaurentMatrix.identity(n) - u
    out = power = LaurentMatrix.identity(n)
    for _ in range(n - 1):
        power = power * neg_nil
        out = out + power
    return out


def unit_gauged(rng, ft, depth=3):
    """Criterion-4 style input: the realization gauged by a random unit
    g = L U in 1 + t M_n(Z[t]) (L, U unipotent lower and upper).  g^-1 is
    a polynomial, so the gauged connection is exact and no series
    inversion is needed."""
    lower = _unipotent(rng, ft.n, depth, lower=True)
    upper = _unipotent(rng, ft.n, depth, lower=False)
    g = lower * upper
    g_inv = _unipotent_inverse(upper) * _unipotent_inverse(lower)
    conn = realization(ft)
    return FormalConnection(g * conn.matrix * g_inv - g.tau() * g_inv, conn.nu)


def constant_invertible(rng, n):
    """A random invertible constant matrix and its inverse."""
    while True:
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        inv = kinverse(rows)
        if inv is not None:
            return LaurentMatrix.from_scalar_matrix(rows), LaurentMatrix.from_scalar_matrix(inv)


def _diagonal(entries):
    n = len(entries)
    return LaurentMatrix([[entries[i] if i == j else LaurentScalar.zero() for j in range(n)]
                          for i in range(n)])


def shear_gauged(rng, conn, spread=2):
    """The connection (against dt/t) gauged by g = C1 diag(t^a) C2 with
    constant invertible C1, C2 and a in [-spread, spread], which moves
    it off every standard chain.  g^-1 and t dg/dt are written in closed
    form, so no series inversion is needed."""
    n = conn.n
    c1, c1_inv = constant_invertible(rng, n)
    a = [rng.randint(-spread, spread) for _ in range(n)]
    c2, c2_inv = constant_invertible(rng, n)
    g = c1 * _diagonal([LaurentScalar.t_power(k) for k in a]) * c2
    g_inv = c2_inv * _diagonal([LaurentScalar.t_power(-k) for k in a]) * c1_inv
    tau_g = c1 * _diagonal([LaurentScalar.t_power(k, Fraction(k)) for k in a]) * c2
    return FormalConnection(g * conn.matrix * g_inv - tau_g * g_inv, conn.nu)


# -- checks made apart from the library -------------------------------------


def torus_degree_exceeds(mat, e, level):
    """True iff every entry of ``mat`` is certified to lie in P^(level+1)
    of the torus chain with period e (m diagonal blocks of size e).

    Entry (u, v) of P^l needs t-order >= ceil((l + phase(v) - phase(u)) / e)
    with phase(u) = e - 1 - (u mod e); an entry known only below t^prec
    certifies nothing beyond its window.
    """
    for u, row in enumerate(mat.rows):
        for v, entry in enumerate(row):
            off = (v % e) - (u % e)          # phase(u) - phase(v)
            if entry.coeffs and e * min(entry.coeffs) + off <= level:
                return False
            if entry.prec is not INF and e * entry.prec + off <= level:
                return False
    return True


def same_formal_type(got, want):
    """Shape and every coefficient equal, compared as field elements."""
    return (got.e, got.m, got.depth) == (want.e, want.m, want.depth) and all(
        list(a) == list(b) for a, b in zip(got.coeffs, want.coeffs))

