"""The fraction-free series kernel against the coefficient-wise reference.

Each property draws series with finite and exact windows, negative
orders and coefficients over Q, over Q(i) or over Q(zeta_m) for
m in {3, 5, 8, 12} (mixed with rational series), and requires the
library's result to equal the reference loops of ``helpers`` exactly:
the same coefficient dict, the same precision (``INF`` itself when
exact), or the same exception type.  The ring laws hold through the
smaller of the two windows compared.
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
CYCLOTOMIC = [get_field("Q(zeta_%d)" % m) for m in (3, 5, 8, 12)]

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
gaussians = st.builds(lambda a, b: QI.from_coords([a, b]), rationals, rationals)


def cyclotomic(field):
    """Elements of Q(zeta_m), often with zero coordinates."""
    coord = st.one_of(st.just(Fraction(0)), rationals)
    return st.lists(coord, min_size=field.degree, max_size=field.degree).map(field.from_coords)


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
fields = st.sampled_from(CYCLOTOMIC)


def field_series(field):
    """Series over the field, or rational series beside them."""
    return st.one_of(series(cyclotomic(field)), series())


def field_matrices(field, n):
    entry = st.one_of(st.just(LaurentScalar.zero()), field_series(field))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n,
                    max_size=n).map(LaurentMatrix)


cyclotomic_pairs = fields.flatmap(lambda f: st.tuples(field_series(f), field_series(f)))
cyclotomic_triples = fields.flatmap(
    lambda f: st.tuples(field_series(f), field_series(f), field_series(f)))


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


@given(cyclotomic_pairs)
def test_cyclotomic_series_product_matches_reference(pair):
    a, b = pair
    assert same(a * b, ref_mul(a, b))


@given(cyclotomic_pairs)
def test_cyclotomic_series_sum_and_difference_match_reference(pair):
    a, b = pair
    assert same(a + b, ref_add(a, b))
    assert same(a - b, ref_sub(a, b))


@settings(max_examples=150)
@given(fields.flatmap(field_series), st.one_of(st.none(), st.integers(2, 12)))
def test_cyclotomic_series_inverse_matches_reference(a, digits):
    assert same_outcome(outcome(a.inverse, digits), outcome(ref_inverse, a, digits))


@settings(max_examples=40)
@given(st.tuples(fields, sizes).flatmap(
    lambda fn: st.tuples(field_matrices(*fn), field_matrices(*fn))))
def test_cyclotomic_matrix_product_matches_reference(pair):
    a, b = pair
    assert same_outcome(a * b, ref_matmul(a, b))


@settings(max_examples=40)
@given(st.tuples(fields, st.integers(1, 3)).flatmap(lambda fn: field_matrices(*fn)),
       st.one_of(st.none(), st.integers(4, 8)))
def test_cyclotomic_matrix_inverse_matches_reference(m, digits):
    assert same_outcome(outcome(m.inverse, digits), outcome(ref_matinv, m, digits))


ring_triples = st.one_of(st.tuples(any_series, any_series, any_series), cyclotomic_triples)


@given(ring_triples)
def test_series_ring_laws_under_windows(triple):
    """Associativity and distributivity agree through the smaller window."""
    a, b, c = triple
    assert ((a * b) * c).agrees(a * (b * c))
    assert (a * (b + c)).agrees(a * b + a * c)
    assert ((a + b) * c).agrees(a * c + b * c)


@settings(max_examples=40)
@given(st.tuples(fields, st.integers(1, 3)).flatmap(
    lambda fn: st.tuples(*(field_matrices(*fn) for _ in range(3)))))
def test_matrix_ring_laws_under_windows(triple):
    a, b, c = triple
    assert ((a * b) * c).agrees(a * (b * c))
    assert (a * (b + c)).agrees(a * b + a * c)
