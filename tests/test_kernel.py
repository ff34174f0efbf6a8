"""The fraction-free series kernel against the coefficient-wise reference.

Each property draws series with finite and exact windows, negative
orders and coefficients over Q or over Q(i), and requires the library's
result to equal the reference loops of ``helpers`` exactly: the same
coefficient dict, the same precision (``INF`` itself when exact), or the
same exception type.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from formalconn.errors import FormalConnError
from formalconn.matrices import LaurentMatrix
from formalconn.scalars import get_field
from formalconn.series import INF, LaurentScalar

from helpers import ref_add, ref_inverse, ref_matinv, ref_matmul, ref_mul, ref_sub

QI = get_field("Q(i)")

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
gaussians = st.builds(lambda a, b: QI.from_coords([a, b]), rationals, rationals)


@st.composite
def series(draw, coefficients=rationals):
    lo = draw(st.integers(-4, 2))
    exps = draw(st.lists(st.integers(lo, lo + 7), max_size=6, unique=True))
    coeffs = {k: draw(coefficients) for k in exps}
    prec = draw(st.one_of(st.just(INF), st.integers(lo - 1, lo + 9)))
    return LaurentScalar(coeffs, prec)


any_series = st.one_of(series(), series(gaussians))


@st.composite
def matrices(draw, n):
    coefficients = draw(st.sampled_from([rationals, gaussians]))
    entry = st.one_of(st.just(LaurentScalar.zero()), series(coefficients))
    return LaurentMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@st.composite
def dominant_diagonal(draw, n):
    """A matrix whose diagonal carries a monomial below every other
    order, so that elimination mostly runs to the end."""
    m = draw(matrices(n))
    return m + LaurentMatrix([[LaurentScalar.t_power(draw(st.integers(-8, -5)), draw(rationals))
                               if i == j else LaurentScalar.zero() for j in range(n)]
                              for i in range(n)])


sizes = st.integers(1, 4)


def same(x, y):
    """Exactly equal series: coefficients, precision and exactness."""
    return x.coeffs == y.coeffs and x.prec == y.prec and \
        (x.prec is INF) == (y.prec == INF)


def outcome(f, *args):
    try:
        return f(*args)
    except FormalConnError as exc:
        return type(exc)


def same_outcome(x, y):
    if isinstance(x, type) or isinstance(y, type):
        return x is y
    if isinstance(x, LaurentMatrix):
        return all(same(a, b) for ra, rb in zip(x.rows, y.rows) for a, b in zip(ra, rb))
    return same(x, y)


@given(any_series, any_series)
def test_series_product_matches_reference(a, b):
    assert same(a * b, ref_mul(a, b))


@given(any_series, any_series)
def test_series_sum_and_difference_match_reference(a, b):
    assert same(a + b, ref_add(a, b))
    assert same(a - b, ref_sub(a, b))


@settings(max_examples=500)
@given(any_series, st.one_of(st.none(), st.integers(2, 12)))
def test_series_inverse_matches_reference(a, digits):
    assert same_outcome(outcome(a.inverse, digits), outcome(ref_inverse, a, digits))


@settings(max_examples=60)
@given(sizes.flatmap(lambda n: st.tuples(matrices(n), matrices(n))))
def test_matrix_product_matches_reference(pair):
    a, b = pair
    assert same_outcome(a * b, ref_matmul(a, b))


@settings(max_examples=60)
@given(st.one_of(sizes.flatmap(matrices), sizes.flatmap(dominant_diagonal)),
       st.one_of(st.none(), st.integers(4, 10)))
def test_matrix_inverse_matches_reference(m, digits):
    assert same_outcome(outcome(m.inverse, digits), outcome(ref_matinv, m, digits))
