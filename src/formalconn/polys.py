"""Polynomials over the ground field and over truncated power series.

Provides the characteristic polynomial of series matrices, exact gcd /
squarefree machinery, factorization into irreducibles over Q (by the
Zassenhaus method) or a cyclotomic extension (by Trager's norm method),
and Hensel lifting of a coprime factorization from the residue field up
the t-adic filtration.  No library path calls the series routines
charpoly_series and hensel_lift; they stay while the benchmark's span
recorder wraps them by name (ROADMAP item 1).

Polynomials are dense lists of coefficients in ascending degree.
"""

import itertools
import math
from fractions import Fraction

from .errors import FactorTooLarge, NonsplitField
from .intpoly import (certify_squarefree, cyclotomic_norm, factor_squarefree, primitive,
                      trager_factor_candidates)
from .linalg import integer_ring
from .matrices import LaurentMatrix
from .scalars import (as_fraction, format_scalar, get_field, is_rational_value, is_zero,
                      scalar_coords, scalar_inverse, sort_key)
from .series import LaurentScalar

# -- ground-field polynomials ------------------------------------------


def kpoly_trim(p):
    while len(p) > 1 and is_zero(p[-1]):
        p = p[:-1]
    return list(p)


def kpoly_deg(p):
    p = kpoly_trim(p)
    return -1 if len(p) == 1 and is_zero(p[0]) else len(p) - 1


def kpoly_add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else Fraction(0)
        b = q[i] if i < len(q) else Fraction(0)
        out.append(a + b)
    return kpoly_trim(out)


def kpoly_sub(p, q):
    return kpoly_add(p, [-c for c in q])


def kpoly_scale(p, c):
    return kpoly_trim([a * c for a in p])


def kpoly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not is_zero(a):
            for j, b in enumerate(q):
                if not is_zero(b):
                    out[i + j] = out[i + j] + a * b
    return kpoly_trim(out)


def kpoly_divmod(p, q):
    """Division with remainder; q need not be monic."""
    p = kpoly_trim(p)
    q = kpoly_trim(q)
    dq = kpoly_deg(q)
    assert dq >= 0
    lead = q[-1]
    inv = scalar_inverse(lead)
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - dq, 1)
    while kpoly_deg(rem) >= dq:
        d = kpoly_deg(rem)
        c = rem[d] * inv
        quot[d - dq] = c
        for i in range(dq + 1):
            rem[d - dq + i] = rem[d - dq + i] - c * q[i]
        rem = kpoly_trim(rem)
        if kpoly_deg(rem) < dq:
            break
    return kpoly_trim(quot), kpoly_trim(rem)


def kpoly_monic(p):
    p = kpoly_trim(p)
    lead = p[-1]
    if lead == 1:
        return p
    inv = scalar_inverse(lead)
    return [c * inv for c in p]


def kpoly_gcd(p, q):
    a, b = kpoly_trim(p), kpoly_trim(q)
    while kpoly_deg(b) >= 0:
        _, r = kpoly_divmod(a, b)
        a, b = b, r
    if kpoly_deg(a) < 0:
        return a
    return kpoly_monic(a)


def kpoly_gcdext(p, q):
    """Extended Euclid: returns (g, u, v) with u p + v q = g, g monic."""
    a, b = kpoly_trim(p), kpoly_trim(q)
    ua, va = [Fraction(1)], [Fraction(0)]
    ub, vb = [Fraction(0)], [Fraction(1)]
    while kpoly_deg(b) >= 0:
        quo, rem = kpoly_divmod(a, b)
        a, b = b, rem
        ua, ub = ub, kpoly_sub(ua, kpoly_mul(quo, ub))
        va, vb = vb, kpoly_sub(va, kpoly_mul(quo, vb))
    lead = a[-1]
    inv = scalar_inverse(lead)
    return kpoly_scale(a, inv), kpoly_scale(ua, inv), kpoly_scale(va, inv)


def kpoly_derivative(p):
    return kpoly_trim([i * c for i, c in enumerate(p)][1:] or [Fraction(0)])


def kpoly_is_squarefree(p):
    return kpoly_deg(kpoly_gcd(p, kpoly_derivative(p))) <= 0


def kpoly_format(p, var="X"):
    parts = []
    for i in range(kpoly_deg(p), -1, -1):
        c = p[i] if i < len(p) else Fraction(0)
        if is_zero(c):
            continue
        cs = format_scalar(c)
        if i == 0:
            parts.append(cs)
        elif i == 1:
            parts.append("(%s)*%s" % (cs, var))
        else:
            parts.append("(%s)*%s^%d" % (cs, var, i))
    return " + ".join(parts) if parts else "0"


# -- factorization over the ground field ----------------------------------

# Trager's method factors a norm of degree deg(g) * phi(m) for each g it
# splits over Q(zeta_m).  Above this degree, kpoly_factor raises
# FactorTooLarge before it factors anything: the Zassenhaus subset search
# grows exponentially with the number of modular factors of the norm.
MAX_NORM_DEGREE = 64


def kpoly_factor(p, field):
    """Factor a polynomial into monic irreducibles over the field.

    Returns a list of (factor, multiplicity) with ascending-coefficient
    monic factors, sorted by degree and then by coefficients; the unit
    content is discarded.  Coefficients are Fractions over Q and Ext
    elements over Q(zeta_m).

    Each part of the square-free decomposition
    (:func:`kpoly_squarefree_parts`) is factored by
    :func:`kpoly_factor_squarefree`.
    """
    p = kpoly_monic(p)
    if all(is_rational_value(c) for c in p):
        p = [as_fraction(c) for c in p]
    else:
        _check_norm_degree(kpoly_deg(p), field)
    out = [(fac, mult) for part, mult in kpoly_squarefree_parts(p)
           for fac in kpoly_factor_squarefree(part, field)]
    out.sort(key=lambda fm: (kpoly_deg(fm[0]), _factor_sort_key(fm[0])))
    return out


def kpoly_squarefree_parts(f):
    """Yun's square-free decomposition of a monic f: monic, square-free,
    pairwise coprime parts with their multiplicities, in ascending
    multiplicity."""
    df = kpoly_derivative(f)
    a = kpoly_gcd(f, df)
    b = kpoly_divmod(f, a)[0]
    c = kpoly_divmod(df, a)[0]
    out, mult = [], 1
    while kpoly_deg(b) > 0:
        d = kpoly_sub(c, kpoly_derivative(b))
        a = kpoly_gcd(b, d)
        b = kpoly_divmod(b, a)[0]
        c = kpoly_divmod(d, a)[0]
        if kpoly_deg(a) > 0:
            out.append((a, mult))
        mult += 1
    return out


def kpoly_factor_squarefree(g, field):
    """The monic irreducible factors over the field of a monic
    square-free g, unsorted, with coefficients in the field.

    A rational g is factored over Z by the Zassenhaus method
    (:mod:`intpoly`), and over Q(zeta_m) each factor is split further by
    Trager's norm method; any other g goes to Trager's method directly,
    after the norm-degree refusal (FactorTooLarge).
    """
    if all(is_rational_value(c) for c in g):
        ints = integer_ring(get_field("Q")).read([as_fraction(c) for c in g])[1]
        facs = [_monic_rational(h) for h in factor_squarefree(primitive(ints))]
        if field.m != 1:
            facs = [h for f in facs for h in _trager(f, field)]
    else:
        _check_norm_degree(kpoly_deg(g), field)
        facs = _trager(g, field)
    return [_in_field(f, field) for f in facs]


def _monic_rational(h):
    return [Fraction(c, h[-1]) for c in h]


def _in_field(f, field):
    if field.m == 1:
        return [Fraction(c) for c in f]
    return [field.from_coords(_padded_coords(c, field)) for c in f]


def _padded_coords(c, field):
    coords = scalar_coords(c)
    return coords + [Fraction(0)] * (field.degree - len(coords))


def _check_norm_degree(d, field):
    if d * field.degree > MAX_NORM_DEGREE:
        raise FactorTooLarge("factoring a degree-%d polynomial over %s needs a norm of "
                             "degree %d > %d" % (d, field.name, d * field.degree,
                                                 MAX_NORM_DEGREE))


def _trager(g, field):
    """Monic irreducible factors over Q(zeta_m) of a monic square-free g
    (Trager 1976): for the first shift s whose norm
    N_s(x) = Res_y(Phi_m(y), g(x - s y)) is square-free, each irreducible
    factor h of N_s over Q gives the factor gcd(g(x), h(x + s theta))."""
    d = kpoly_deg(g)
    if d <= 1:
        return [g]
    _check_norm_degree(d, field)
    coords = [_padded_coords(c, field) for c in g]
    den = math.lcm(*(c.denominator for row in coords for c in row))
    rows = [[int(c * den) for c in row] for row in coords]
    rational = all(not any(row[1:]) for row in rows)
    # For a rational g, N_0 = g^phi(m) is never square-free.
    for s in itertools.count(1 if rational else 0):
        norm = primitive(cyclotomic_norm(rows, field.m, field.modulus, s))
        if not (certify_squarefree(norm) or
                kpoly_is_squarefree([Fraction(c) for c in norm])):
            continue
        hs = factor_squarefree(norm)
        if len(hs) == 1:
            return [g]
        return [_trager_factor(g, rows, s, h, field) for h in hs]


def _trager_factor(g, rows, s, h, field):
    """The monic factor gcd(g(x), h(x + s theta)), of degree deg(h) / phi(m),
    from the first multi-modular candidate that divides g exactly."""
    k = kpoly_deg(h) // field.degree
    for cand in trager_factor_candidates(rows, field.m, field.modulus, s, h, k):
        fac = [field.from_coords(row) for row in cand]
        if kpoly_deg(kpoly_divmod(g, fac)[1]) < 0:
            return fac


def _factor_sort_key(p):
    return tuple(sort_key(c) for c in p)


def kpoly_roots(p, field):
    """Roots lying in the field with multiplicities, plus the product of
    the nonlinear irreducible factors (the part with no roots in k)."""
    roots = []
    nonsplit = [field.one()]
    for fac, mult in kpoly_factor(p, field):
        if kpoly_deg(fac) == 1:
            roots.append((-fac[0], mult))
        else:
            for _ in range(mult):
                nonsplit = kpoly_mul(nonsplit, fac)
    return roots, kpoly_trim(nonsplit)


def nth_root_in_field(x, n, field):
    """An exact n-th root of x in the field, or None.

    A rational radicand with a rational root keeps that root: for even n
    the nonnegative one, and for a negative radicand with even n the
    primitive 2n-th root of unity times the root of -x.  Otherwise the
    root is the least root of X^n - x in the field under sort_key.
    """
    if is_zero(x):
        return field.zero()
    if is_rational_value(x):
        q = as_fraction(x)
        root = _rational_nth_root(abs(q), n)
        if root is not None and q < 0 and n % 2 == 0:
            # x = (zeta * root)^n needs zeta^n = -1
            try:
                return field.root_of_unity(2 * n) * field.from_rational(root)
            except NonsplitField:
                pass
        elif root is not None:
            return field.from_rational(-root if q < 0 else root)
    roots, _ = kpoly_roots([-x] + [field.zero()] * (n - 1) + [field.one()], field)
    return min((root for root, _ in roots), key=sort_key, default=None)


def _rational_nth_root(q, n):
    """The rational n-th root of q >= 0, or None."""
    num = _int_nth_root(q.numerator, n)
    den = _int_nth_root(q.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_nth_root(a, n):
    """The integer x >= 0 with x^n = a >= 0, or None; exact for any size."""
    if a < 2:
        return a
    if n == 2:
        x = math.isqrt(a)
    else:
        # Newton's iteration from above converges to floor(a^(1/n)).
        x = 1 << -(-a.bit_length() // n)
        while True:
            y = ((n - 1) * x + a // x ** (n - 1)) // n
            if y >= x:
                break
            x = y
    return x if x ** n == a else None


# -- series-coefficient polynomials --------------------------------------


def charpoly_series(mat):
    """Characteristic polynomial of a LaurentMatrix, ascending
    coefficients (LaurentScalar), monic of degree n.  Faddeev-LeVerrier:
    only divisions by integers occur."""
    n = mat.n
    coeffs = [LaurentScalar.zero() for _ in range(n + 1)]
    coeffs[n] = LaurentScalar.one()
    work = mat
    m_prev = None
    for k in range(1, n + 1):
        cur = mat if k == 1 else mat * m_prev
        tr = cur.trace()
        c = tr * Fraction(-1, k)
        coeffs[n - k] = c
        m_prev = cur + _scalar_diag(n, c)
    return coeffs


def _scalar_diag(n, series):
    return LaurentMatrix.scalar(n, series)


def hensel_lift(phi, factors, digits):
    """Lift the coprime factorization phi = prod(factors) (mod t) to
    t^digits, all factors at once.

    phi: monic, coefficients LaurentScalar with orders >= 0.
    factors: monic, pairwise coprime ground-field polynomials whose
    product is phi mod t.
    Returns the lifted factors, in order: monic series-coefficient
    polynomials known to t^digits whose product agrees with phi through
    t^digits.

    Multifactor lifting along a balanced factor tree (von zur
    Gathen-Gerhard, *Modern Computer Algebra*, 15.5): the root lifts phi
    into the products of the two halves of the factor list, and each
    half is then split by its own subtree, so k factors take k - 1
    two-factor lifts, each smaller than phi below the root.
    """
    digs = [kpoly_trim([c.coeff_or_zero(k) for c in phi]) for k in range(digits)]
    return [_by_power(lift, len(fac), digits)
            for lift, fac in zip(_lift_tree(digs, factors, digits), factors)]


def _lift_tree(digs, factors, digits):
    """The t-digit lists of the monic lifts of the factors whose
    product is the digit list ``digs`` mod t."""
    if len(factors) == 1:
        return [digs]
    k = len(factors) // 2
    g0, h0 = factors[0], factors[k]
    for f in factors[1:k]:
        g0 = kpoly_mul(g0, f)
    for f in factors[k + 1:]:
        h0 = kpoly_mul(h0, f)
    g, h = _lift_pair(digs, g0, h0, digits)
    return _lift_tree(g, factors[:k], digits) + _lift_tree(h, factors[k:], digits)


def _lift_pair(digs, g0, h0, digits):
    """The t-digit lists (g, h) of the monic lifts of the coprime g0, h0
    with g h = digs through t^digits.

    Linear lifting (von zur Gathen-Gerhard, 15.4) on ground-field
    polynomials by t-digit: with g = sum g_k t^k and h = sum h_k t^k,
    the error at digit k is e_k = digs_k - sum_(0<i<k) g_i h_(k-i), and
    the corrections solve g_k h0 + h_k g0 = e_k with deg g_k < deg g0.
    Quadratic (Newton) steps, which also lift the Bezout cofactors, were
    measured about twice as slow here: with schoolbook products of digit
    polynomials a doubling step costs more digit products than the
    digits it adds.
    """
    one, _, v = kpoly_gcdext(g0, h0)
    assert kpoly_deg(one) == 0, "factors are not coprime"
    gs, hs = [g0], [h0]
    for k in range(1, digits):
        e_k = digs[k]
        for i in range(1, k):
            if kpoly_deg(gs[i]) >= 0 and kpoly_deg(hs[k - i]) >= 0:
                e_k = kpoly_sub(e_k, kpoly_mul(gs[i], hs[k - i]))
        if kpoly_deg(e_k) < 0:
            gs.append(e_k)
            hs.append(e_k)
            continue
        # Solve A h0 + B g0 = e_k with deg A < deg g0.
        _, a = kpoly_divmod(kpoly_mul(v, e_k), g0)
        b, rem = kpoly_divmod(kpoly_sub(e_k, kpoly_mul(a, h0)), g0)
        assert kpoly_deg(rem) < 0, "Hensel correction failed to divide"
        gs.append(a)
        hs.append(b)
    return gs, hs


def _by_power(digit_polys, length, digits):
    """The series-coefficient polynomial sum_k digit_polys[k] t^k, with
    every coefficient known to t^digits."""
    out = []
    for i in range(length):
        out.append(LaurentScalar._raw({k: p[i] for k, p in enumerate(digit_polys)
                                       if k < digits and i < len(p) and not is_zero(p[i])},
                                      digits))
    return out
