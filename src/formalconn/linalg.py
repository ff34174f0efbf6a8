"""Exact linear algebra over the ground field.

Matrices here are plain lists of lists of field scalars (Fraction or
Ext).  Everything is fraction-free-in-spirit Gaussian elimination at
desk scale; no numerics.
"""

from fractions import Fraction

from .scalars import is_zero, scalar_inverse


def kzeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]

def kidentity(n):
    m = kzeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m

def kmatmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = kzeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if not is_zero(c):
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] = oi[j] + c * bk[j]
    return out

def sum_scalars(items):
    acc = None
    for x in items:
        acc = x if acc is None else acc + x
    return Fraction(0) if acc is None else acc

def ktranspose(a):
    return [list(col) for col in zip(*a)]


def rref(mat):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if not is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        inv = scalar_inverse(pv)
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def knullspace(mat):
    """Basis of the right kernel, as a list of column vectors."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    red, pivots = rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def ksolve(mat, rhs):
    """One solution of mat @ x = rhs, or None if inconsistent."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [list(mat[i]) + [rhs[i]] for i in range(rows)]
    red, pivots = rref(aug)
    for r in range(len(pivots), rows):
        if not is_zero(red[r][cols]):
            return None
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def kinverse(mat):
    n = len(mat)
    aug = [list(mat[i]) + kidentity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def charpoly(mat):
    """Monic characteristic polynomial (ascending coefficients) via the
    Faddeev-LeVerrier recurrence; exact in characteristic zero."""
    n = len(mat)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = kidentity(n)
    prev = None
    for k in range(1, n + 1):
        prev = kmatmul(mat, m) if k > 1 else [list(r) for r in mat]
        tr = sum_scalars(prev[i][i] for i in range(n))
        c = tr * Fraction(-1, k)
        coeffs[n - k] = c
        m = [list(r) for r in prev]
        for i in range(n):
            m[i][i] = m[i][i] + c
    return coeffs


def minpoly(mat):
    """Monic minimal polynomial (ascending coefficients) by finding the
    first linear dependence among vectorized powers."""
    n = len(mat)
    powers = [kidentity(n)]
    while True:
        powers.append(kmatmul(powers[-1], mat))
        vecs = [[p[i][j] for i in range(n) for j in range(n)] for p in powers]
        dep = ksolve(ktranspose(vecs[:-1]), vecs[-1])
        if dep is not None:
            return [-c for c in dep] + [Fraction(1)]
        if len(powers) > n + 1:
            raise AssertionError("minimal polynomial search exceeded degree bound")
