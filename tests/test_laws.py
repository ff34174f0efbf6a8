"""Algebraic laws as properties: the gauge action composes, the slope
is gauge invariant, and JSON round trips return what was written, over
Q and Q(i)."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from formalconn.connections import FormalConnection, gauge_transform, slope
from formalconn.formal_types import FormalType
from formalconn.matrices import LaurentMatrix
from formalconn.scalars import get_field
from formalconn.series import LaurentScalar, OneForm
from formalconn.torus import TorusData

from helpers import (random_matrix, random_regular_type, random_unit_matrix, seeded,
                     shear_gauged)

Q = get_field("Q")
QI = get_field("Q(i)")

_fields = st.sampled_from([Q, QI])
_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _scalars(draw, field):
    if field is Q:
        return draw(_rationals)
    return field.from_coords([draw(_rationals), draw(_rationals)])


@st.composite
def _series(draw, field, lo=-3, hi=3):
    exps = draw(st.lists(st.integers(lo, hi), max_size=4, unique=True))
    return LaurentScalar.from_pairs([(k, draw(_scalars(field))) for k in exps])


@st.composite
def _matrices(draw, field, n=None):
    n = n or draw(st.integers(1, 3))
    return LaurentMatrix([[draw(_series(field)) for _ in range(n)] for _ in range(n)])


def _constant_gauge(rng, n):
    """An integer unipotent lower-triangular matrix times an integer
    upper one: invertible, with an exact inverse."""
    lower = [[Fraction(1) if i == j else Fraction(rng.randint(-2, 2)) if i > j else Fraction(0)
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else Fraction(rng.randint(-2, 2)) if i < j else Fraction(0)
              for j in range(n)] for i in range(n)]
    return LaurentMatrix.from_scalar_matrix(lower) * LaurentMatrix.from_scalar_matrix(upper)


@given(st.integers(1, 3), st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=30)
def test_gauge_action_composes(n, seed, constant_first):
    # gauge_transform(h g, A) = gauge_transform(h, gauge_transform(g, A)):
    # g acts first, as matrices compose
    rng = seeded(seed)
    conn = FormalConnection(random_matrix(rng, n))
    g = _constant_gauge(rng, n) if constant_first else random_unit_matrix(rng, n)
    h = random_unit_matrix(rng, n)
    once = gauge_transform(h * g, conn).matrix
    twice = gauge_transform(h, gauge_transform(g, conn)).matrix
    assert once.agrees(twice)
    assert gauge_transform(LaurentMatrix.identity(n), conn).matrix.agrees(conn.matrix)


@st.composite
def _slope_inputs(draw):
    """A seed and a connection of rank <= 6: a shear-gauged regular
    formal type (slope r/e, e | n, gcd(r, e) = 1) or a random matrix."""
    seed = draw(st.integers(0, 10 ** 6))
    rng = seeded(seed)
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return seed, FormalConnection(random_matrix(rng, n, lo=-3, hi=2, density=0.4))
    e = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    r = draw(st.sampled_from([r for r in range(0 if e == 1 else 1, 4)
                              if math.gcd(r, e) == 1]))
    conn = FormalConnection(random_regular_type(rng, n, e, r).realization())
    return seed, shear_gauged(rng, conn, spread=1)


@given(_slope_inputs())
@settings(max_examples=25, deadline=None)
def test_slope_is_gauge_invariant(case):
    # slope(g . A) = slope(A) for a unit gauge g = 1 + O(t), whose
    # inverse leaves windows in g . A
    seed, conn = case
    g = random_unit_matrix(seeded(seed + 1), conn.n)
    assert slope(gauge_transform(g, conn)) == slope(conn)


@given(_fields.flatmap(lambda f: _series(f)))
def test_series_json_round_trip(series):
    field = QI if any(not isinstance(c, Fraction) for c in series.coeffs.values()) else Q
    assert LaurentScalar.from_json(series.to_json(), field) == series


@given(_fields.flatmap(lambda f: st.tuples(st.just(f), _matrices(f))))
def test_matrix_json_round_trip(case):
    field, mat = case
    back = LaurentMatrix.from_json(mat.to_json(), field)
    assert back.rows == mat.rows


@given(_fields.flatmap(lambda f: st.tuples(st.just(f), _matrices(f),
                                            st.sampled_from([OneForm.dt(), OneForm.dt_over_t(),
                                                             OneForm.dt_over_t_pow(2)]))))
def test_connection_json_round_trip(case):
    field, mat, nu = case
    conn = FormalConnection.from_dt_matrix(mat, nu)
    data = conn.to_json(field)
    back = FormalConnection.from_json(data)
    assert back.nu.f == conn.nu.f
    assert back.matrix.rows == conn.matrix.rows
    assert back.to_json(field) == data


@st.composite
def _formal_types(draw):
    field = draw(_fields)
    e, m, r = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    coeffs = [[draw(_scalars(field)) for _ in range(r + 1)] for _ in range(m)]
    return field, FormalType(TorusData(e, m), r, coeffs, field)


@given(_formal_types())
def test_formal_type_json_round_trip(case):
    field, ft = case
    back = FormalType.from_json(ft.to_json(), field)
    assert back == ft
    assert back.to_json() == ft.to_json()
