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

Series are multiplied and inverted fraction-free (von zur Gathen-Gerhard,
*Modern Computer Algebra*, 8) over every ground field, on the integer
rings of :mod:`formalconn.linalg`: a series is read by
:func:`ring_form` as a dict from exponents to ring elements (an int
over Q, an element of Z[zeta_m] over Q(zeta_m)) over one common
denominator, products are sums of ``ring.convolve``, and each output
coefficient is written once by ``ring.scalar``.  One ring serves all
the operands of a product, so over Q(zeta_m) every coefficient is
written as an ``Ext``, a rational one included.
"""

import math
from fractions import Fraction

from .errors import ParseError, PrecisionError, ZeroLeading
from .linalg import ring_of
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
                return LaurentScalar.zero()
            return LaurentScalar._raw({k: v * other for k, v in self.coeffs.items()}, self.prec)
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        prec = mul_prec(self, other)
        ring = ring_of_series([self, other])
        den, (a, b) = ring_form(ring, [self, other])
        acc = {}
        ring.convolve(acc, a, b, prec)
        return from_ring_form(ring, acc, den * den, prec)

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
        if len(self.coeffs) == 1 and self.is_exact:
            return LaurentScalar({-s: scalar_inverse(self.coeffs[s])})
        if self.prec is not INF:
            digits = int(self.prec - s) if digits is None else min(digits, int(self.prec - s))
        elif digits is None:
            digits = default_precision()
        if digits < PRECISION_FLOOR:
            raise PrecisionError("inverse with window %d below floor" % digits,
                                 needed=s + PRECISION_FLOOR)
        # With coeffs[s + j] = c_j / den, the inverse has t^(k - s)
        # coefficient den W_k / c_0^(k+1), where W_0 = 1 and
        # W_k = -sum_(j=1..k) c_j c_0^(j-1) W_(k-j).  With 1/c_0 =
        # inv / dinv from ring.reciprocal, that is
        # den W_k inv^(k+1) / dinv^(k+1).
        ring = ring_of_series([self])
        den, (nums,) = ring_form(ring, [self])
        lead = nums[s]
        js, cs = [], []  # the j < digits with c_j != 0, and c_j c_0^(j-1)
        power = ring.one
        for j in range(1, digits):
            c = nums.get(s + j)
            if c:
                js.append(j)
                cs.append(ring.mul(c, power))
            power = ring.mul(power, lead)
        w = [ring.one]
        m = 0  # the number of js up to k
        for k in range(1, digits):
            if m < len(js) and js[m] == k:
                m += 1
            w.append(ring.neg(ring.dot(cs[:m], [w[k - j] for j in js[:m]])))
        dinv, inv = ring.reciprocal(lead)
        out = {}
        num, div = ring.scale(den, inv), dinv
        for k in range(digits):
            if w[k]:
                out[k - s] = ring.scalar(ring.mul(w[k], num), div)
            num, div = ring.mul(num, inv), div * dinv
        return LaurentScalar._raw(out, digits - s)

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


def ring_of_series(series):
    """The integer ring of the coefficients of the given series."""
    return ring_of([s.coeffs.values() for s in series])


def ring_form(ring, series):
    """Write series over one common denominator: ``(den, forms)``, with
    ``forms[s]`` the dict from each exponent of series ``s`` to the
    element of ``ring`` that is its coefficient times den."""
    den, nums = ring.read([v for s in series for v in s.coeffs.values()])
    nums = iter(nums)
    return den, [dict(zip(s.coeffs, nums)) for s in series]


def from_ring_form(ring, nums, den, prec):
    """The series sum nums[k] / den * t^k, written by ``ring.scalar``,
    zero numerators dropped; every exponent must already lie below
    prec."""
    return LaurentScalar._raw({k: ring.scalar(v, den) for k, v in nums.items() if v}, prec)


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
