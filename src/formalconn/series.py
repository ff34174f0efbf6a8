"""Truncated Laurent series over an exact ground field.

A :class:`LaurentScalar` stores the finitely many known coefficients of
a formal Laurent series together with a *precision* bound: coefficients
at exponents >= ``prec`` are unknown.  Exact values (Laurent
polynomials) carry ``prec = INF`` and never lose digits.  Every
operation propagates the t-adic precision window; an operation that
would need an unknown coefficient raises ``PrecisionError`` instead of
silently truncating.

The session-wide default window for freshly created inexact values
(series inverses, logarithms, ...) is ``default_precision()`` digits, a
module-level setting.

Series are multiplied fraction-free (von zur Gathen-Gerhard, *Modern
Computer Algebra*, 8) over every ground field: the coefficients are
written as integer power-basis coordinates over one common denominator
(one coordinate for a series with rational coefficients, phi(m) of them
over Q(zeta_m)), the coordinates are convolved pairwise, the
coordinates of degree >= phi(m) are folded back once by
``GroundField.fold_dicts``, and each output coefficient is written once
by ``GroundField.element``, one canonical ``Fraction`` per coordinate.
Rational series are inverted fraction-free as well; series with
coefficients in Q(zeta_m) are inverted by the coefficient-wise
recurrence.
"""

import math
from fractions import Fraction

from .errors import ParseError, PrecisionError, ZeroLeading
from .scalars import Ext, format_scalar, is_zero, parse_scalar, scalar_inverse

INF = math.inf

_DEFAULT_PRECISION = 24
PRECISION_FLOOR = 4


def default_precision():
    return _DEFAULT_PRECISION


def set_default_precision(n):
    """Set the session default window width (t-adic digits)."""
    global _DEFAULT_PRECISION
    if n < PRECISION_FLOOR:
        raise PrecisionError("default precision below floor %d" % PRECISION_FLOOR, needed=PRECISION_FLOOR)
    _DEFAULT_PRECISION = int(n)


class LaurentScalar:
    """A Laurent series known modulo t^prec."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec=INF):
        if prec == INF:
            prec = INF
        clean = {}
        for k, v in coeffs.items():
            if k < prec and not is_zero(v):
                clean[k] = v
        self.coeffs = clean
        self.prec = prec

    @classmethod
    def _raw(cls, coeffs, prec):
        """Wrap a dict whose values are nonzero and whose exponents lie
        below ``prec`` (``INF`` itself when exact), without cleaning."""
        self = object.__new__(cls)
        self.coeffs = coeffs
        self.prec = prec
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, prec=INF):
        return cls({}, prec)

    @classmethod
    def one(cls):
        return cls({0: Fraction(1)})

    @classmethod
    def t_power(cls, k, coeff=Fraction(1), prec=INF):
        return cls({k: coeff}, prec)

    @classmethod
    def from_scalar(cls, c, prec=INF):
        return cls({0: c}, prec)

    @classmethod
    def from_pairs(cls, pairs, prec=INF):
        d = {}
        for k, v in pairs:
            d[k] = d.get(k, 0) + v
        return cls(d, prec)

    # -- basic structure --------------------------------------------------

    @property
    def order(self):
        """Lowest exponent with a (known) nonzero coefficient; for a
        series that is zero to precision this is the precision bound."""
        if self.coeffs:
            return min(self.coeffs)
        return self.prec

    @property
    def is_exact(self):
        return self.prec is INF

    def is_zero(self):
        """Zero to the known precision (exactly zero when exact)."""
        return not self.coeffs

    def coeff(self, k):
        if k >= self.prec:
            raise PrecisionError("coefficient of t^%d unknown (prec %s)" % (k, self.prec),
                                 needed=k + 1)
        return self.coeffs.get(k, Fraction(0))

    def coeff_or_zero(self, k):
        return self.coeffs.get(k, Fraction(0))

    def support(self):
        return sorted(self.coeffs)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return LaurentScalar._raw({k: v for k, v in self.coeffs.items() if k < prec}, prec)

    def window(self):
        return (self.order, self.prec)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar._raw({k: -v for k, v in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Ext)):
            if is_zero(other):
                return LaurentScalar.zero(self.prec)
            return LaurentScalar._raw({k: v * other for k, v in self.coeffs.items()}, self.prec)
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        prec = mul_prec(self, other)
        den, field, (a, b) = int_form([self, other])
        return from_coord_form(coord_product([(a, b)], prec), den * den, prec, field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def shift(self, k):
        """Multiply by t^k (exact)."""
        prec = self.prec if self.prec is INF else self.prec + k
        return LaurentScalar({e + k: v for e, v in self.coeffs.items()}, prec)

    def inverse(self, digits=None):
        """Multiplicative inverse.  Monomials invert exactly; everything
        else is computed to ``digits`` t-adic digits, never more than the
        series' own window (by default to that window, or to the session
        default for exact non-monomial input)."""
        if self.is_zero():
            raise ZeroLeading("inverse of zero(-to-precision) series")
        s = self.order
        lead = self.coeffs[s]
        if len(self.coeffs) == 1 and self.is_exact:
            inv_lead = scalar_inverse(lead)
            return LaurentScalar({-s: inv_lead})
        if self.prec is not INF:
            digits = int(self.prec - s) if digits is None else min(digits, int(self.prec - s))
        elif digits is None:
            digits = default_precision()
        if digits < PRECISION_FLOOR:
            raise PrecisionError("inverse with window %d below floor" % digits,
                                 needed=s + PRECISION_FLOOR)
        den, field, (coords,) = int_form([self])
        if len(coords) == 1:
            return _inverse_rational(den, coords[0], s, digits)
        inv_lead = scalar_inverse(lead)
        # u = self / (lead * t^s) = 1 + eps; invert by power series recurrence.
        u = {k - s: v * inv_lead for k, v in self.coeffs.items() if k - s < digits}
        out = {0: field.one()}
        for k in range(1, digits):
            acc = None
            for j, uj in u.items():
                if 0 < j <= k:
                    term = uj * out.get(k - j, 0)
                    acc = term if acc is None else acc + term
            if acc is not None and not is_zero(acc):
                out[k] = -acc
        res = {k - s: v * inv_lead for k, v in out.items()}
        return LaurentScalar(res, -s + digits)

    def derivative(self):
        """d/dt, exact on the known window."""
        prec = self.prec if self.prec is INF else self.prec - 1
        return LaurentScalar._raw({k - 1: k * v for k, v in self.coeffs.items() if k != 0}, prec)

    def tau(self):
        """t * d/dt; preserves exponents so the window survives."""
        return LaurentScalar._raw({k: k * v for k, v in self.coeffs.items() if k != 0}, self.prec)

    # -- comparisons -------------------------------------------------------

    def agrees(self, other, through=None):
        """Equality over the shared precision window (optionally only
        through exponent ``through`` exclusive)."""
        other = _lift(other)
        bound = min(self.prec, other.prec)
        if through is not None:
            bound = min(bound, through)
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeff_or_zero(k) == other.coeff_or_zero(k)
                   for k in keys if k < bound)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Ext)):
            other = LaurentScalar.from_scalar(other) if not is_zero(other) else LaurentScalar.zero()
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self.coeffs == other.coeffs and self.prec == other.prec

    def __hash__(self):
        return hash((tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0])), self.prec))

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for k in self.support():
                c = format_scalar(self.coeffs[k])
                if k == 0:
                    parts.append(c)
                elif k == 1:
                    parts.append("(%s)*t" % c)
                else:
                    parts.append("(%s)*t^%d" % (c, k))
            body = " + ".join(parts)
        if self.prec is INF:
            return body
        return "%s + O(t^%d)" % (body, self.prec)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return [[k, format_scalar(self.coeffs[k])] for k in self.support()]

    @classmethod
    def from_json(cls, data, field, prec=INF):
        if not isinstance(data, list):
            raise ParseError("series must be a list of [exponent, coefficient] terms")
        pairs = []
        for item in data:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ParseError("series term must be [exponent, coefficient]")
            k, c = item
            if isinstance(k, bool) or not isinstance(k, int):
                raise ParseError("exponent must be an integer, got %r" % (k,))
            pairs.append((k, parse_scalar(str(c), field)))
        return cls.from_pairs(pairs, prec)


def _lift(x):
    if isinstance(x, LaurentScalar):
        return x
    if isinstance(x, (int, Fraction, Ext)):
        return LaurentScalar.zero() if is_zero(x) else LaurentScalar.from_scalar(x)
    return NotImplemented


def mul_prec(a, b):
    """Precision of the product a * b: exact when both are, otherwise
    the nearer of the two truncations shifted by the other's order."""
    if a.prec is INF and b.prec is INF:
        return INF
    prec = min(a.order + b.prec, b.order + a.prec)
    return INF if prec == INF else prec


def _add(a, b, negate):
    """a + b, or a - b when ``negate``; only exponents present in both
    can cancel, so nothing else is re-checked."""
    prec = min(a.prec, b.prec)
    out = dict(a.coeffs) if a.prec == prec else \
        {k: v for k, v in a.coeffs.items() if k < prec}
    for k, v in b.coeffs.items():
        if k < prec:
            if negate:
                v = -v
            if k in out:
                v = out[k] + v
                if not v:
                    del out[k]
                    continue
            out[k] = v
    return LaurentScalar._raw(out, prec)


# -- the fraction-free kernel ------------------------------------------------


def int_form(series):
    """Write series over one common denominator, coordinate by coordinate.

    Returns ``(den, field, forms)``.  ``forms[s]`` lists integer
    numerator dicts, one per power-basis coordinate of series ``s``: a
    single dict when every coefficient of ``s`` is rational, ``degree``
    dicts when one lies in Q(zeta_m); coordinate c of ``s.coeffs[k]`` is
    ``forms[s][c].get(k, 0) / den``.  ``field`` is the cyclotomic field
    of the Ext coefficients, or None when there are none.
    """
    den = 1
    field = None
    for s in series:
        for v in s.coeffs.values():
            if isinstance(v, Ext):
                field = v.field
                for c in v.coords:
                    d = c.denominator
                    if den % d:
                        den = den // math.gcd(den, d) * d
            else:
                d = v.denominator
                if den % d:
                    den = den // math.gcd(den, d) * d
    forms = []
    for s in series:
        if field is None or not any(isinstance(v, Ext) for v in s.coeffs.values()):
            forms.append([{k: v.numerator * (den // v.denominator)
                           for k, v in s.coeffs.items()}])
            continue
        coords = [{} for _ in range(field.degree)]
        for k, v in s.coeffs.items():
            if isinstance(v, Ext):
                for c, x in enumerate(v.coords):
                    if x:
                        coords[c][k] = x.numerator * (den // x.denominator)
            else:
                coords[0][k] = v.numerator * (den // v.denominator)
        forms.append(coords)
    return den, field, forms


def convolve(acc, a, b, prec):
    """acc[i + j] += a[i] * b[j] over integer numerator dicts, for
    exponents i + j < prec."""
    for i, x in a.items():
        lim = prec - i
        for j, y in b.items():
            if j < lim:
                k = i + j
                acc[k] = acc.get(k, 0) + x * y


def from_int_form(nums, den, prec):
    """The series sum nums[k] / den * t^k, one canonical Fraction per
    nonzero numerator; every exponent must already lie below prec."""
    return LaurentScalar._raw({k: Fraction(v, den) for k, v in nums.items() if v}, prec)


def coord_product(pairs, prec, acc=None):
    """Add sum a * b over the (a, b) coordinate lists in ``pairs``, with
    exponents below prec, into the coordinate dicts ``acc`` (a fresh
    list when None), which grow to the coordinates they need:
    coordinate p + q collects coordinate p of a times coordinate q of b."""
    if acc is None:
        acc = [{}]
    for a, b in pairs:
        top = len(a) + len(b) - 1
        while len(acc) < top:
            acc.append({})
        for p, x in enumerate(a):
            for q, y in enumerate(b):
                convolve(acc[p + q], x, y, prec)
    return acc


def from_coord_form(acc, den, prec, field):
    """The series with coordinate c of its t^k coefficient equal to
    acc[c][k] / den, every exponent already below prec.  One coordinate
    gives rational coefficients; more give Ext coefficients of
    ``field``, after the coordinates of degree >= phi(m) are folded back
    by :meth:`GroundField.fold_dicts`."""
    if len(acc) == 1:
        return from_int_form(acc[0], den, prec)
    field.fold_dicts(acc)
    out = {}
    for k in set().union(*acc):
        nums = [a.get(k, 0) for a in acc]
        if any(nums):
            out[k] = field.element(nums, den)
    return LaurentScalar._raw(out, prec)


def _inverse_rational(den, nums, s, digits):
    # With coeffs[k] = A_k / D and u_j = A_(s+j) / A_s, the inverse of
    # u = 1 + eps has u^-1_k = W_k / A_s^k where
    # W_k = -sum_(j=1..k) A_(s+j) A_s^(j-1) W_(k-j), W_0 = 1.
    lead = nums[s]
    scaled = {}
    power = 1
    for j in range(1, digits):
        a = nums.get(s + j)
        if a:
            scaled[j] = a * power
        power *= lead
    w = [1]
    for k in range(1, digits):
        acc = 0
        for j, c in scaled.items():
            if j > k:
                break
            acc -= c * w[k - j]
        w.append(acc)
    out = {}
    power = lead
    for k in range(digits):
        if w[k]:
            out[k - s] = Fraction(w[k] * den, power)
        power *= lead
    return LaurentScalar._raw(out, digits - s)


class OneForm:
    """A nonzero one-form nu = f dt.  Its order is the t-order of f, so
    dt/t has order -1 and dt has order 0."""

    __slots__ = ("f",)

    def __init__(self, f):
        if f.is_zero():
            raise ZeroLeading("one-form must be nonzero")
        self.f = f

    @classmethod
    def dt_over_t(cls):
        return cls(LaurentScalar.t_power(-1))

    @classmethod
    def dt(cls):
        return cls(LaurentScalar.one())

    @classmethod
    def dt_over_t_pow(cls, ell):
        """dt / t^ell, of order -ell."""
        return cls(LaurentScalar.t_power(-ell))

    @property
    def order(self):
        return self.f.order

    def __repr__(self):
        return "(%r) dt" % self.f

    def to_json(self):
        return {"order": self.order, "coeffs": self.f.to_json()}

    @classmethod
    def from_json(cls, data, field):
        if not isinstance(data, dict) or "coeffs" not in data:
            raise ParseError("one-form must be an object with \"coeffs\"")
        f = LaurentScalar.from_json(data["coeffs"], field)
        if f.is_zero():
            raise ParseError("one-form must be nonzero")
        return cls(f)


def residue(a, nu):
    """Res(a * nu): the t^(-1) coefficient of a*f for nu = f dt.

    Raises PrecisionError when that coefficient is outside the known
    window of the product.
    """
    prod = a * nu.f
    if prod.prec is not INF and prod.prec <= -1:
        raise PrecisionError("residue coefficient t^-1 unknown", needed=0)
    return prod.coeff_or_zero(-1)
