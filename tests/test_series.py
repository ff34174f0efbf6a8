"""Laurent scalar arithmetic, precision windows, residues, one-forms."""

import math
import time
from fractions import Fraction

import pytest
import sympy

from formalconn.errors import NonsplitField, ParseError, PrecisionError, ZeroLeading
from formalconn.matrices import LaurentMatrix
from formalconn.polys import nth_root_in_field
from formalconn.scalars import (MAX_CYCLOTOMIC_DEGREE, MAX_CYCLOTOMIC_ORDER, Ext,
                                _cyclotomic_poly, format_scalar, get_field,
                                parse_scalar, scalar_coords)
from formalconn.series import INF, LaurentScalar, OneForm, default_precision, residue

from helpers import LS, random_series, ref_ext_euclid_inverse, ref_ext_product, seeded


def test_mul_inverse_powers():
    assert LS([(-1, 1)]) * LS([(1, 1)]) == LS([(0, 1)])


def test_mul_exact_polynomials():
    assert LS([(0, 1), (1, 1)]) * LS([(0, 1), (1, -1)]) == LS([(0, 1), (2, -1)])


def test_mul_precision_window():
    # (t^-2 + 1 known to N=3 digits) * (t^-1 known to N=3 digits)
    a = LS([(-2, 1), (0, 1)], prec=1)
    b = LS([(-1, 1)], prec=2)
    prod = a * b
    assert prod.coeff(-3) == 1 and prod.coeff(-1) == 1
    assert (prod.order, prod.prec) == (-3, 0)


def test_zero_scalar_times_series_is_exact_zero():
    # 0 * x is exactly zero whatever the window of x, on either side, as
    # the product of series with an exact zero is (mul_prec)
    x = LaurentScalar({0: 1, 1: 2}, 3)
    for prod in (x * 0, 0 * x, x * Fraction(0), x * get_field("Q(i)").zero(),
                 LaurentScalar.zero() * x):
        assert prod.is_exact and prod.is_zero() and repr(prod) == "0"
    m = LaurentMatrix([[x, LaurentScalar.one()], [LaurentScalar.zero(5), x]]) * 0
    assert all(e.is_exact and e.is_zero() for row in m.rows for e in row)


def test_inverse_monomial_exact():
    inv = LS([(-3, 1)]).inverse()
    assert inv == LS([(3, 1)]) and inv.is_exact


def test_inverse_geometric():
    inv = LS([(0, 1), (1, 1)]).inverse()
    for k in range(0, 10):
        assert inv.coeff(k) == (-1) ** k


def test_inverse_digits_never_exceed_the_window():
    """The t^5 coefficient of (1 + t + O(t^5))^-1 depends on the unknown
    t^5 coefficient of the input, so more digits are not claimed."""
    inv = LaurentScalar({0: Fraction(1), 1: Fraction(1)}, 5).inverse(10)
    assert inv.prec == 5 and inv.coeffs == {k: (-1) ** k for k in range(5)}
    shifted = LaurentScalar({-1: Fraction(2), 0: Fraction(1)}, 3).inverse(6)
    assert shifted.prec == 5
    assert shifted.coeffs == {k: Fraction((-1) ** (k - 1), 2 ** k) for k in range(1, 5)}
    assert LaurentScalar({0: Fraction(1), 1: Fraction(1)}).inverse(10).prec == 10


def test_inverse_scalar_multiple():
    assert LS([(1, 2)]).inverse() == LS([(-1, (1, 2))])


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroLeading):
        LaurentScalar.zero().inverse()
    with pytest.raises(ZeroLeading):
        LaurentScalar.zero(prec=5).inverse()


def test_mul_associative_commutative_and_inverse_roundtrip():
    for digits in (5, 20):
        rng = seeded(100 + digits)
        for _ in range(25):
            a = random_series(rng, -3, 4, prec=digits)
            b = random_series(rng, -2, 3, prec=digits)
            c = random_series(rng, -1, 5, prec=digits)
            assert (a * b).agrees(b * a)
            assert ((a * b) * c).agrees(a * (b * c))
            if not a.is_zero():
                inv = a.inverse()
                assert (a * inv).agrees(LaurentScalar.one())
                assert (inv * a).agrees(LaurentScalar.one())


def test_infinite_float_precision_is_exact():
    a = LaurentScalar({0: 1, 1: 2}, float("inf"))
    assert a.is_exact and a.prec is INF
    inv = a.inverse()
    assert inv.prec == default_precision()
    assert (a * inv).agrees(LaurentScalar.one())


def test_coeff_outside_window_raises():
    a = LS([(0, 1)], prec=3)
    with pytest.raises(PrecisionError):
        a.coeff(3)


def test_residue_examples():
    nu_dt = OneForm.dt()
    nu = OneForm.dt_over_t()
    assert residue(LS([(-1, 1)]), nu_dt) == 1
    assert residue(LaurentScalar.one(), nu) == 1
    assert residue(LS([(-2, 3), (-1, 5)]), nu) == 0


def test_residue_precision_error():
    a = LaurentScalar.zero(prec=-2)
    with pytest.raises(PrecisionError):
        residue(a, OneForm.dt())


def test_residue_of_derivative_vanishes():
    rng = seeded(7)
    for _ in range(20):
        a = random_series(rng, -4, 5)
        assert residue(a.derivative(), OneForm.dt()) == 0


def test_tau_preserves_window():
    a = LS([(-2, 1), (3, 5)], prec=6)
    assert a.tau().prec == 6
    assert a.tau().coeff(-2) == -2
    assert a.tau().coeff(3) == 15


def test_one_form_orders():
    assert OneForm.dt_over_t().order == -1
    assert OneForm.dt().order == 0
    assert OneForm.dt_over_t_pow(3).order == -3


def test_zero_to_precision_carries_window():
    z = LaurentScalar.zero(prec=5)
    assert z.is_zero() and z.prec == 5 and z.order == 5
    assert (z + LS([(7, 1)])).is_zero()


def test_serialization_roundtrip():
    field = get_field("Q")
    a = LS([(-2, (3, 7)), (0, 1), (4, (-1, 2))])
    back = LaurentScalar.from_json(a.to_json(), field)
    assert back == a


def test_scalar_parse_format_roundtrip_qi():
    field = get_field("Q(i)")
    x = field.from_coords([Fraction(1, 2), Fraction(-3, 4)])
    assert parse_scalar(format_scalar(x), field) == x


def test_scalar_field_arithmetic():
    qi = get_field("Q(i)")
    i = qi.generator()
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    assert (i / (1 + i)) * (1 + i) == i
    z5 = get_field("Q(zeta_5)")
    z = z5.generator()
    assert z ** 5 == 1 and z ** 4 != 1
    assert z * z.inverse() == 1


@pytest.mark.parametrize("m", [4, 3, 5, 8, 12, 24])
def test_ext_product_and_inverse_match_references(m):
    """Ext products and inverses, on coordinates with mixed
    denominators and on rational values held as Ext, equal the Fraction
    convolution and the extended Euclidean algorithm."""
    field = get_field("Q(zeta_%d)" % m)
    rng = seeded(m)

    def draw():
        if rng.random() < 0.2:
            return field.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        return field.from_coords([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                  if rng.random() < 0.7 else 0 for _ in range(field.degree)])

    for _ in range(40):
        x, y = draw(), draw()
        assert (x * y).coords == ref_ext_product(x, y).coords
        if not x:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            continue
        inv = x.inverse()
        assert isinstance(inv, Ext) and inv.coords == ref_ext_euclid_inverse(x).coords
        assert x * inv == 1
        assert x ** -1 == inv and x ** -3 == inv * inv * inv
        if y:
            assert (x / y).coords == ref_ext_product(x, ref_ext_euclid_inverse(y)).coords
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()


def _root_group(field):
    """(M, powers): the roots of unity of the field form a cyclic group
    of order M, generated by w = zeta_m for even m and w = -zeta_m for
    odd m; powers maps the integer power-basis coordinates of w^j to j.
    Each power is the last times w, multiplied by zeta by a shift and
    one fold of z^d = -(Phi_m(z) - z^d)."""
    m = field.m
    if m == 1:
        return 2, {(1,): 0, (-1,): 1}
    big = m if m % 2 == 0 else 2 * m
    sign = 1 if m % 2 == 0 else -1
    modulus = field.modulus
    cur = [1] + [0] * (field.degree - 1)
    powers = {}
    for j in range(big):
        powers[tuple(cur)] = j
        top = cur[-1]
        cur = [sign * ((cur[i - 1] if i else 0) - top * modulus[i]) for i in range(field.degree)]
    return big, powers


def test_roots_of_unity_in_closed_form():
    # Q(zeta_m) holds the m-th roots of unity, and the 2m-th ones for odd
    # m; the root returned for order e is zeta_m^(m/e) when e | m, else
    # (-zeta_m)^(2m/e).  Its exponent in the generator w of _root_group:
    # zeta_m = w for even m and zeta_m = -w = w^(m+1) for odd m.
    seen = set()
    for m in range(1, 121):
        field = get_field("Q(zeta_%d)" % m)
        if field.m in seen:
            continue
        seen.add(field.m)
        m = field.m
        big, powers = _root_group(field)
        for e in range(1, 2 * m + 3):
            holds = e <= 2 or m % e == 0 or (m % 2 == 1 and (2 * m) % e == 0)
            assert field.has_root_of_unity(e) == holds, (m, e)
            if not holds:
                with pytest.raises(NonsplitField):
                    field.root_of_unity(e)
                continue
            coords = scalar_coords(field.root_of_unity(e))
            assert all(c.denominator == 1 for c in coords), (m, e)
            j = powers[tuple(int(c) for c in coords)]
            assert big // math.gcd(j, big) == e, (m, e)
            if m % e == 0:
                expected = (m // e) * (1 if m % 2 == 0 else m + 1) % big
            else:
                expected = (2 * m) // e
            assert j == expected, (m, e)


@pytest.mark.parametrize("name", ["Q(zeta_0)", "Q(zeta_-3)", "Q(zeta_x)"])
def test_field_name_rejected(name):
    with pytest.raises(ParseError):
        get_field(name)


@pytest.mark.parametrize("name", [
    "Q(zeta_%d)" % (MAX_CYCLOTOMIC_ORDER + 1),   # m above the bound (prime)
    "Q(zeta_30030)",                             # degree 5760
    "Q(zeta_" + "7" * 5000 + ")",                # too long to convert, let alone factor
])
def test_cyclotomic_order_bound(name):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exceeds"):
        get_field(name)
    assert time.perf_counter() - start < 1


def test_cyclotomic_degree_bound():
    # m = 9240 is within the order bound, but phi(9240) = 1920
    assert 9240 <= MAX_CYCLOTOMIC_ORDER < 30030
    with pytest.raises(ParseError, match="degree 1920"):
        get_field("Q(zeta_9240)")
    assert get_field("Q(zeta_2520)").degree == 576 <= MAX_CYCLOTOMIC_DEGREE
    # non-ASCII digits are not a number
    with pytest.raises(ParseError, match="unknown field"):
        get_field("Q(zeta_\u0661\u0662)")


def test_nth_root_beyond_float_range():
    q = get_field("Q")
    big = 3 ** 40 + 7
    assert nth_root_in_field(Fraction(big ** 2), 2, q) == big
    assert nth_root_in_field(Fraction(big ** 2 + 1), 2, q) is None
    assert nth_root_in_field(Fraction(10 ** 400), 2, q) == 10 ** 200
    assert nth_root_in_field(Fraction(-big ** 5, 2 ** 35), 5, q) == Fraction(-big, 2 ** 7)
    assert nth_root_in_field(Fraction(10 ** 399), 3, q) == 10 ** 133


def test_cyclotomic_modulus_matches_sympy():
    x = sympy.Symbol("x")
    for m in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert _cyclotomic_poly(m) == [int(c) for c in expected], m


def test_large_cyclotomic_field_is_fast():
    start = time.perf_counter()
    field = get_field("Q(zeta_2520)")
    assert time.perf_counter() - start < 5
    assert field.degree == 576 and field.modulus[-1] == 1
