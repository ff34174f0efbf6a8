"""The fraction-free constant linear algebra against independent oracles.

Over Q every routine is compared with sympy's exact matrices; over Q(i)
and Q(zeta_5) with the Gauss-Jordan elimination in field scalars of
``helpers.ref_rref``.  Matrices are drawn with zero rows and columns,
as products of thinner factors (so often rank-deficient), empty, or all
zero.  The constant conjugation is compared with the coefficient-wise
matrix products of ``helpers.ref_matmul``: the same JSON, the same
window on every entry and the same exactness.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from formalconn.connections import _flag_levi
from formalconn.linalg import (charpoly, kernel_flag_basis, kinverse, kmatmul, knullspace,
                               ksolve, read_matrix, ring_of, rref, solve_form)
from formalconn.matrices import IntMatrix, LaurentMatrix, constant_product
from formalconn.parahoric import GradedEndo, standard_chain
from formalconn.scalars import get_field, is_zero
from formalconn.series import INF, LaurentScalar

from helpers import ref_matmul, ref_rref

QI = get_field("Q(i)")
QZ5 = get_field("Q(zeta_5)")
QZ3 = get_field("Q(zeta_3)")

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
gaussians = st.builds(lambda a, b: QI.from_coords([a, b]), rationals, rationals)
quintic = st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=4,
                   max_size=4).map(QZ5.from_coords)
cubic = st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=2,
                 max_size=2).map(QZ3.from_coords)


def _dense(draw, rows, cols, scalars):
    zero = st.just(Fraction(0))
    return [[draw(st.one_of(zero, scalars)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def matrices(draw, scalars, rows=None, cols=None):
    """rows x cols matrices: dense, a product through an inner dimension
    below both (rank-deficient), or zero."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0 if rows == 0 else 1, 5)) if cols is None else cols
    kind = draw(st.sampled_from(["dense", "product", "zero"]))
    if kind == "zero" or rows == 0:
        return [[Fraction(0)] * cols for _ in range(rows)]
    if kind == "dense":
        return _dense(draw, rows, cols, scalars)
    inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
    a, b = _dense(draw, rows, inner, scalars), _dense(draw, inner, cols, scalars)
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


fields = st.sampled_from([(rationals, "Q"), (gaussians, "Q(i)"), (quintic, "Q(zeta_5)")])


def _sympy(mat, cols):
    def conv(x):
        if isinstance(x, Fraction):
            return sympy.Rational(x.numerator, x.denominator)
        re, im = x.coords
        return sympy.Rational(re.numerator, re.denominator) + \
            sympy.I * sympy.Rational(im.numerator, im.denominator)
    return sympy.Matrix(len(mat), cols, [conv(x) for row in mat for x in row])


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


def _ref_nullspace(mat, cols):
    red, pivots = ref_rref(mat)
    out = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        out.append(v)
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_and_nullspace_match_oracles(data):
    scalars, name = data.draw(fields)
    mat = data.draw(matrices(scalars))
    cols = len(mat[0]) if mat else 0
    red, pivots = rref(mat)
    assert (red, pivots) == ref_rref(mat)
    assert knullspace(mat) == _ref_nullspace(mat, cols)
    if name == "Q" and mat:
        s_red, s_pivots = _sympy(mat, cols).rref()
        assert list(s_pivots) == pivots
        assert red == [[_fraction(x) for x in s_red.row(i)] for i in range(len(mat))]
        s_null = _sympy(mat, cols).nullspace()
        assert knullspace(mat) == [[_fraction(x) for x in v] for v in s_null]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ksolve_matches_reference(data):
    """A consistent right-hand side (mat times a drawn x) gives the
    solution that is zero at the free columns; a drawn one may be
    inconsistent, and then ksolve gives None."""
    scalars, _ = data.draw(fields)
    mat = data.draw(matrices(scalars))
    cols = len(mat[0]) if mat else 0
    if data.draw(st.booleans()):
        x = [data.draw(scalars) for _ in range(cols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in mat]
    else:
        rhs = [data.draw(st.one_of(st.just(Fraction(0)), scalars)) for _ in mat]
    red, pivots = ref_rref([list(row) + [b] for row, b in zip(mat, rhs)])
    got = ksolve(mat, rhs)
    if pivots and pivots[-1] == cols:
        assert got is None
        return
    want = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        want[pc] = red[r][cols]
    assert got == want
    assert all(sum((a * b for a, b in zip(row, got)), Fraction(0)) == y
               for row, y in zip(mat, rhs))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kinverse_and_polynomials_match_oracles(data):
    scalars, name = data.draw(fields)
    n = data.draw(st.integers(1, 5))
    mat = data.draw(matrices(scalars, n, n))
    inv = kinverse(mat)
    red, pivots = ref_rref([list(row) + [Fraction(int(i == j)) for j in range(n)]
                            for i, row in enumerate(mat)])
    if pivots[:n] != list(range(n)):
        assert inv is None
    else:
        assert inv == [row[n:] for row in red]
        assert kmatmul(mat, inv) == [[Fraction(int(i == j)) for j in range(n)]
                                     for i in range(n)]
    poly = charpoly(mat)
    assert len(poly) == n + 1 and poly[n] == 1
    # Cayley-Hamilton: poly(mat) = 0
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(poly):
        acc = kmatmul(acc, mat)
        acc = [[x + (c if i == j else 0) for j, x in enumerate(row)]
               for i, row in enumerate(acc)]
    assert all(is_zero(x) for row in acc for x in row)
    if name == "Q":
        m = _sympy(mat, n)
        x = sympy.Symbol("x")
        assert poly == [_fraction(c) for c in reversed(m.charpoly(x).all_coeffs())]
        if inv is not None:
            assert inv == [[_fraction(v) for v in m.inv().row(i)] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kmatmul_matches_sum_of_products(data):
    scalars, _ = data.draw(fields)
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(matrices(scalars, rows, inner))
    b = data.draw(matrices(scalars, inner, cols))
    assert kmatmul(a, b) == [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
                              for j in range(cols)] for i in range(rows)]


def test_edge_cases():
    assert rref([]) == ([], [])
    assert rref([[]]) == ([[]], [])
    assert knullspace([[Fraction(0), Fraction(0)]]) == [[1, 0], [0, 1]]
    assert ksolve([[Fraction(0)]], [Fraction(1)]) is None
    assert ksolve([[Fraction(0)]], [Fraction(0)]) == [0]
    assert ksolve([], []) == []
    assert kinverse([]) == []
    assert kinverse([[Fraction(0)]]) is None
    assert kinverse([[QI.from_coords([0, 2])]]) == [[QI.from_coords([0, Fraction(-1, 2)])]]
    assert charpoly([]) == [1]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_flag_basis_matches_reference(data):
    """The integer kernel flag is proportional, column by column, to the
    knullspace/rref construction on field scalars, and its Levi change,
    normalised to 1 at each column's last nonzero coordinate, makes the
    pattern strictly block upper triangular."""
    scalars, _ = data.draw(fields)
    n = data.draw(st.integers(1, 5))
    upper = [[data.draw(scalars) if j > i else Fraction(0) for j in range(n)]
             for i in range(n)]
    c = data.draw(matrices(scalars, n, n))
    c_inv = kinverse(c)
    pat = upper if c_inv is None else kmatmul(kmatmul(c, upper), c_inv)
    basis, power = [], [list(r) for r in pat]
    for _ in range(n):
        cand = basis + _ref_nullspace(power, n)
        _, pivots = ref_rref([[v[i] for v in cand] for i in range(n)])
        basis = [cand[p] for p in pivots]
        if len(basis) == n:
            break
        power = kmatmul(power, pat)
    ring = ring_of(pat)
    rows = read_matrix(ring, pat)[1]
    got = [[ring.scalar(x, 1) for x in vec] for vec in kernel_flag_basis(ring, rows)]
    assert [[x / next(y for y in reversed(vec) if not is_zero(y)) for x in vec]
            for vec in got] == basis
    (den_inv, inv_rows), (den, g_rows) = _flag_levi(ring, rows, [n])
    g = [[ring.scalar(x, den) for x in row] for row in g_rows]
    g_inv = [[ring.scalar(x, den_inv) for x in row] for row in inv_rows]
    assert [list(col) for col in zip(*g)] == basis
    assert kmatmul(g, g_inv) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    conj = kmatmul(kmatmul(g_inv, pat), g)
    assert GradedEndo(conj, 0, standard_chain((n,))).is_nilpotent()
    assert all(is_zero(conj[i][j]) for i in range(n) for j in range(i + 1))


def test_kernel_flag_basis_of_a_pattern_that_is_not_nilpotent():
    # ker(pat) = ker(pat^2) is the first coordinate, short of the whole space
    for pat in ([[0, 1, 0], [0, 0, 0], [0, 0, 1]],
                [[QI.from_coords([0, 0]), QI.from_coords([1, 1])],
                 [QI.from_coords([0, 0]), QI.from_coords([0, 2])]]):
        ring = ring_of(pat)
        rows = read_matrix(ring, pat)[1]
        assert kernel_flag_basis(ring, rows) is None
        assert _flag_levi(ring, rows, [len(pat)]) is None


@st.composite
def windowed_series(draw, scalars):
    """Exact zeros, series zero to a window, exact series and series
    with finite windows, at orders from -3."""
    kind = draw(st.sampled_from(["exact zero", "zero to window", "exact", "window"]))
    if kind == "exact zero":
        return LaurentScalar.zero()
    lo = draw(st.integers(-3, 2))
    if kind == "zero to window":
        return LaurentScalar.zero(lo)
    coeffs = {k: draw(scalars) for k in draw(st.lists(st.integers(lo, lo + 5), max_size=4))}
    prec = INF if kind == "exact" else draw(st.integers(lo, lo + 7))
    return LaurentScalar(coeffs, prec)


def _windows(m):
    return [[x.prec for x in row] for row in m.rows]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_constant_product_matches_series_products(data):
    scalars, _ = data.draw(fields)
    series_scalars = data.draw(st.sampled_from([rationals, scalars]))
    n = data.draw(st.integers(1, 4))
    p = data.draw(matrices(scalars, n, n))
    q = data.draw(matrices(scalars, n, n))
    m = LaurentMatrix([[data.draw(windowed_series(series_scalars)) for _ in range(n)]
                       for _ in range(n)])
    lp, lq = LaurentMatrix.from_scalar_matrix(p), LaurentMatrix.from_scalar_matrix(q)
    lpm = ref_matmul(lp, m)
    for got, want in ((constant_product(p, m, q), ref_matmul(lpm, lq)),
                      (constant_product(p, m), lpm)):
        assert got.to_json() == want.to_json()
        assert _windows(got) == _windows(want)
        assert all((x.prec is INF) == (y.prec is INF)
                   for rx, ry in zip(got.rows, want.rows) for x, y in zip(rx, ry))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_conjugation_cancels_the_denominator_of_g(data):
    """With den g = g_int and (den_inv, right) = g_int^-1 from solve_form,
    g^-1 y g is the same canonical integer form whether the constants
    carry den, as g^-1 = den right / den_inv and g = g_int / den, or it
    is cancelled, as right / den_inv and g_int / 1."""
    scalars = data.draw(st.sampled_from([rationals, gaussians, cubic]))
    n = data.draw(st.integers(1, 4))
    # g = L U: L unit lower triangular, U upper triangular with a nonzero
    # diagonal, so g is invertible
    nonzero = scalars.filter(lambda x: not is_zero(x))
    lower = [[Fraction(int(i == j)) if j >= i else data.draw(scalars) for j in range(n)]
             for i in range(n)]
    upper = [[data.draw(nonzero) if j == i else data.draw(scalars) if j > i else Fraction(0)
              for j in range(n)] for i in range(n)]
    g = kmatmul(lower, upper)
    m = LaurentMatrix([[data.draw(windowed_series(scalars)) for _ in range(n)]
                       for _ in range(n)])
    mat = IntMatrix.read(m)
    ring = ring_of(g, base=mat.ring)
    if ring is not mat.ring:
        mat = IntMatrix(n, mat.den, ring, [{k: ring.const(v) for k, v in f.items()}
                                           for f in mat.forms], mat.precs)
    den, g_int = read_matrix(ring, g)
    pivots, den_inv, right, _ = solve_form(ring, g_int, n)
    assert pivots == list(range(n))
    with_den = mat.times_constants((den_inv, [[ring.scale(den, x) for x in row]
                                              for row in right]), (den, g_int))
    cancelled = mat.times_constants((den_inv, right), (1, g_int))
    assert (with_den.den, with_den.forms, with_den.precs) == \
        (cancelled.den, cancelled.forms, cancelled.precs)
    assert with_den.write().to_json() == ref_matmul(ref_matmul(
        LaurentMatrix.from_scalar_matrix(kinverse(g)), m),
        LaurentMatrix.from_scalar_matrix(g)).to_json()
