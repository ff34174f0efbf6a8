"""The slope descent against the reference descents of ``helpers``.

The library moves, round by round, to the best lattice chain of the
current frame (the least cycle mean of the entry orders) and changes
the basis by the kernel flag of a nilpotent leading term; the scan
reference tries every (permutation, composition) pair through a permuted matrix
and moves by shear rounds.  The two may certify the slope with
different gauges and chains, so the descent is checked for what it
promises: the stratum is contained in gauge . conn, it is fundamental
(or regular singular) and gcd-reduced on a grouped standard chain, and
its slope is the reference's.  Where the reference raises, the descent
raises the same exception type -- unless the reference ran out of
precision and the descent certifies a stratum, whose slope must then
hold for an exact completion of the windows.

The series reference runs the same rounds as the library on
LaurentMatrix values; the library's rounds on integer numerators must
give the same gauge, matrix, windows and stratum, or the same error.
"""

import itertools
import json
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from formalconn.connections import FormalConnection, fundamental_stratum, gauge_transform, slope
from formalconn.errors import PrecisionError
from formalconn.linalg import kinverse
from formalconn.matrices import LaurentMatrix, constant_product
from formalconn.parahoric import GradedEndo, filtration_degree, standard_chain
from formalconn.scalars import get_field
from formalconn.series import INF, LaurentScalar

from helpers import (descent_round_bound, random_regular_type, record_descent_depths,
                     ref_fundamental_stratum, ref_is_fundamental, ref_scan_fundamental_stratum,
                     shear_gauged)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
QI = get_field("Q(i)")
# a + b i, an Ext even when b = 0
gaussians = st.builds(lambda a, b: QI.from_coords([a, b]), rationals,
                      st.one_of(st.just(Fraction(0)), rationals))
QZ5 = get_field("Q(zeta_5)")
# elements of degree-4 Q(zeta_5), often with zero coordinates: a product
# folds z^4..z^6 into every coordinate
quintic = st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=4,
                   max_size=4).map(QZ5.from_coords)


@st.composite
def window_entry(draw, lowest, scalars=rationals):
    """A series with exponents in [lowest, 1], exact or known to a window
    that may swallow every coefficient (zero only to its window)."""
    exps = draw(st.lists(st.integers(lowest, 1), max_size=3, unique=True))
    coeffs = {k: draw(scalars) for k in exps}
    prec = draw(st.one_of(st.just(INF), st.just(INF), st.integers(lowest, 3)))
    return LaurentScalar(coeffs, prec)


@st.composite
def descent_matrix(draw, max_n=4, scalars=rationals):
    """Entries above the diagonal reach t^-4; on and below it they start
    at a drawn order, so the leading term on the maximal chain is often
    strictly upper triangular and finer chains or shears are needed.  A
    drawn relabelling of the basis moves the certifying chain off the
    grouped layout.  Rank 1 to max_n, coefficients from ``scalars``."""
    n = draw(st.integers(1, max_n))
    lowest = draw(st.integers(-4, 0))
    rows = []
    for u in range(n):
        rows.append([draw(st.one_of(st.just(LaurentScalar.zero()),
                                    window_entry(-4 if v > u else lowest, scalars)))
                     for v in range(n)])
    perm = draw(st.permutations(range(n)))
    return LaurentMatrix([[rows[perm[u]][perm[v]] for v in range(n)] for u in range(n)])


def _outcome(fn, conn):
    try:
        return fn(conn)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


def _completed(mat, rng):
    """An exact matrix that agrees with mat on every window: each entry
    known only below t^p gains nonzero coefficients at t^p and t^(p+1)."""
    rows = []
    for row in mat.rows:
        out = []
        for x in row:
            coeffs = dict(x.coeffs)
            if x.prec is not INF:
                coeffs.update({x.prec + k: Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
                               for k in (0, 1)})
            out.append(LaurentScalar(coeffs))
        rows.append(out)
    return LaurentMatrix(rows)


def _assert_certified(conn, result):
    """The promises of fundamental_stratum on one result."""
    gauge, cur, s = result
    assert s.beta is cur.matrix and s.ctx.phases == standard_chain(s.ctx.chain.blocks).phases
    assert gauge_transform(gauge, conn).matrix.agrees(cur.matrix)
    if s.r == 0:
        assert s.ctx.chain.blocks == (conn.n,)
    else:
        assert filtration_degree(cur.matrix, s.ctx) == -s.r
        assert ref_is_fundamental(s) and math.gcd(s.r, s.e) == 1
    # INF is one object: an exact entry must keep it, not another infinity
    for mat in (gauge, cur.matrix):
        assert all(x.prec is INF or x.prec != INF for row in mat.rows for x in row)


def _assert_same_descent(conn):
    got = _outcome(fundamental_stratum, conn)
    want = _outcome(ref_scan_fundamental_stratum, conn)
    if isinstance(want, type):
        if isinstance(got, type) or want is not PrecisionError:
            assert got is want
            return got
        # the descent certifies more than the reference: a completion of
        # the windows has the certified slope
        _assert_certified(conn, got)
        full = FormalConnection(_completed(conn.matrix, random.Random(0)))
        assert fundamental_stratum(full)[2].slope == got[2].slope
        ref = _outcome(ref_scan_fundamental_stratum, full)
        assert isinstance(ref, type) or ref[2].slope == got[2].slope
        return got
    assert not isinstance(got, type), "descent raised %s, reference certified" % got
    _assert_certified(conn, got)
    assert got[2].slope == want[2].slope
    return got


@settings(max_examples=150)
@given(descent_matrix())
def test_descent_matches_reference(mat):
    _assert_same_descent(FormalConnection(mat))


def test_relabelled_iwahori_strata_match_reference():
    # varpi^-k plus constant noise: some standard chain of the frame is
    # fundamental, and after a relabelling of the basis the descent
    # certifies the slope by re-indexing alone -- no shear and no basis
    # change, so the gauge is a permutation matrix.
    rng = random.Random(303)
    for n, k in ((3, 1), (3, 2), (4, 1), (4, 3)):
        base = standard_chain((1,) * n).varpi_power(-k)
        noise = LaurentMatrix([[LaurentScalar({0: Fraction(rng.randint(-2, 2))})
                                for _ in range(n)] for _ in range(n)])
        for perm in itertools.permutations(range(n)):
            mat = base + noise
            relabelled = LaurentMatrix([[mat.rows[perm[u]][perm[v]] for v in range(n)]
                                        for u in range(n)])
            gauge, _, _ = _assert_same_descent(FormalConnection(relabelled))
            entries = [x for row in gauge.rows for x in row if not x.is_zero()]
            assert len(entries) == n and all(x.coeffs == {0: 1} for x in entries)


def _shear_gauged_diagonal(rng, n, depth):
    """d + D dt/t for a diagonal D of polar order ``depth`` with distinct
    leading coefficients, gauged by C1 diag(t^a) C2 (constant C1, C2)."""
    diag = []
    for j in range(n):
        coeffs = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for k in range(-depth + 1, 1)}
        coeffs[-depth] = Fraction(j + 1) * rng.choice([-1, 1])
        diag.append(LaurentScalar(coeffs))
    return shear_gauged(rng, FormalConnection(LaurentMatrix(
        [[diag[i] if i == j else LaurentScalar.zero() for j in range(n)] for i in range(n)])))


def test_descent_rounds_within_bound_n5_n6(monkeypatch):
    # constant gauges move these off every standard chain of their frame,
    # so the descent changes the basis by kernel flags before it certifies
    # the slope; each round raises the depth, within the asserted bound
    rng = random.Random(5060)
    depths = record_descent_depths(monkeypatch)
    counts = []
    for n, depth in ((5, 1), (5, 2), (6, 1), (6, 2)):
        conn = _shear_gauged_diagonal(rng, n, depth)
        depths.clear()
        _, _, s = _assert_same_descent(conn)
        assert s.slope == depth
        assert len(depths) <= descent_round_bound(n, depths[0])
        assert all(a < b for a, b in zip(depths, depths[1:]))
        counts.append(len(depths))
    assert max(counts) > 1, "some case should need a kernel-flag round"


def test_nilpotent_leading_term_settles_in_one_round(monkeypatch):
    # t^-2 times a nilpotent Jordan block has no cycle of entries: a shear
    # alone brings it into gl_n(o), so the descent certifies slope 0 in
    # one round without a nilpotency test
    depths = record_descent_depths(monkeypatch)
    tests = []
    original = GradedEndo.is_nilpotent

    def counting(self):
        tests.append(1)
        return original(self)

    monkeypatch.setattr(GradedEndo, "is_nilpotent", counting)
    for n in (2, 3, 4):
        mat = LaurentMatrix([[LaurentScalar.t_power(-2) if v == u + 1 else LaurentScalar.zero()
                              for v in range(n)] for u in range(n)])
        depths.clear()
        tests.clear()
        _, cur, s = _assert_same_descent(FormalConnection(mat))
        assert (s.r, depths, len(tests)) == (0, [None], 0)
        assert filtration_degree(cur.matrix, s.ctx) >= 0


def test_window_on_the_leading_term_raises():
    # the only cycle runs through an entry known only below t^-1
    zero = LaurentScalar.zero()
    mat = LaurentMatrix([[zero, LaurentScalar.t_power(-3)], [LaurentScalar.zero(prec=-1), zero]])
    conn = FormalConnection(mat)
    assert _outcome(fundamental_stratum, conn) is PrecisionError
    assert _outcome(ref_scan_fundamental_stratum, conn) is PrecisionError


# -- the integer rounds against the same descent on series matrices ---------


@st.composite
def windowed_gauged_type(draw):
    """A shear-gauged regular formal type, which takes kernel-flag rounds,
    conjugated over Q(i) by a constant matrix or not, with some entries
    cut to a window."""
    n = draw(st.integers(2, 6))
    e = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    mat = shear_gauged(rng, FormalConnection(random_regular_type(rng, n, e, draw(
        st.integers(1, 3))).realization()), spread=draw(st.integers(1, 2))).matrix
    if draw(st.booleans()):
        while True:
            c = [[QI.from_coords([rng.randint(-1, 1), rng.randint(-1, 1)]) for _ in range(n)]
                 for _ in range(n)]
            c_inv = kinverse(c)
            if c_inv is not None:
                break
        mat = constant_product(c, mat, c_inv)
    cut = draw(st.lists(st.one_of(st.none(), st.none(), st.none(), st.integers(-3, 4)),
                        min_size=n * n, max_size=n * n))
    return LaurentMatrix([[x if cut[u * n + v] is None else x.truncate(cut[u * n + v])
                           for v, x in enumerate(row)] for u, row in enumerate(mat.rows)])


def _descent_record(fn, conn):
    """Gauge JSON and repr, matrix JSON and repr and (r, e, blocks); or
    the exception type with its needed and short_by."""
    try:
        gauge, cur, s = fn(conn)
    except Exception as exc:  # the exception is part of the outcome
        return type(exc), getattr(exc, "needed", None), getattr(exc, "short_by", None)
    return (json.dumps(gauge.to_json()), repr(gauge), json.dumps(cur.matrix.to_json()),
            repr(cur.matrix), (s.r, s.e, s.ctx.chain.blocks))


@settings(max_examples=200, deadline=None)
@given(st.one_of(descent_matrix(6), descent_matrix(6, gaussians), windowed_gauged_type(),
                 descent_matrix(5, quintic)))
def test_integer_descent_matches_series_descent(mat):
    conn = FormalConnection(mat)
    assert _descent_record(fundamental_stratum, conn) == \
        _descent_record(ref_fundamental_stratum, conn)


def _slope_record(fn, conn):
    """The slope, or the exception type with its needed and short_by."""
    try:
        return fn(conn)
    except Exception as exc:  # the exception is part of the outcome
        return type(exc), getattr(exc, "needed", None), getattr(exc, "short_by", None)


@settings(max_examples=200, deadline=None)
@given(st.one_of(descent_matrix(6), descent_matrix(6, gaussians), windowed_gauged_type(),
                 descent_matrix(5, quintic)))
def test_slope_matches_fundamental_stratum(mat):
    # slope runs the descent with no gauge and certifies the last round
    # on the integer form; fundamental_stratum writes both and builds the
    # stratum, so the two take different paths to the same answer
    conn = FormalConnection(mat)
    assert _slope_record(slope, conn) == \
        _slope_record(lambda c: fundamental_stratum(c)[2].slope, conn)


def test_slope_at_a_window_on_the_residue():
    # a depth-zero chain found only with windows on the residue: slope
    # writes the matrix as fundamental_stratum does, and raises its error
    # with the same needed and short_by unless a known entry certifies
    # the filtration degree
    zero, t = LaurentScalar.zero, LaurentScalar.t_power
    for rows, want in (([[zero(0), t(-3)], [zero(), zero()]], Fraction(0)),
                       ([[zero(0)]], (PrecisionError, None, None)),
                       ([[zero(0), zero()], [zero(), t(1)]], (PrecisionError, 1, 1))):
        conn = FormalConnection(LaurentMatrix(rows))
        assert _slope_record(slope, conn) == want
        assert _slope_record(lambda c: fundamental_stratum(c)[2].slope, conn) == want


def test_shear_term_enters_only_above_the_window():
    # x = (0, -1): the shear t^-1 on basis vector 1 adds 1 = -s_1 to the
    # diagonal entry (1, 1), which holds it only when its window lies
    # above t^0
    for prec, want in ((0, "0 + O(t^0)"), (1, "1/1 + O(t^1)"), (-1, "0 + O(t^-1)")):
        mat = LaurentMatrix([[LaurentScalar.zero(), LaurentScalar.t_power(-3)],
                             [LaurentScalar.t_power(-1), LaurentScalar.zero(prec=prec)]])
        conn = FormalConnection(mat)
        _, cur, s = fundamental_stratum(conn)
        assert (s.r, s.e, repr(cur.matrix.rows[1][1])) == (2, 1, want)
        assert _descent_record(fundamental_stratum, conn) == \
            _descent_record(ref_fundamental_stratum, conn)
