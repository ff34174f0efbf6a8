"""Exact ground-field arithmetic.

The library computes over Q or over a cyclotomic extension Q(zeta_m).
Rational values are plain ``fractions.Fraction`` objects; extension
elements are ``Ext`` instances holding a coordinate vector in the power
basis 1, z, ..., z^(d-1) modulo the m-th cyclotomic polynomial (Cohen,
*A Course in Computational Algebraic Number Theory*, 4.2).  The two
kinds interoperate: Fraction (or int) mixes freely into Ext arithmetic.

:class:`GroundField` is the one place that knows this format: its
:meth:`~GroundField.fold` reduces coordinates of degree >= phi(m) by
the integer reduction table, :meth:`~GroundField.dot` multiplies
elements of Z[zeta_m] given by integer coordinates,
:meth:`~GroundField.reciprocal` inverts one by its norm (1/a = w / N(a)
with w the product of the other Galois conjugates of a; Cohen, 4.2-4.3)
and :meth:`~GroundField.element` writes integer coordinates over one
denominator as the canonical Fraction or Ext.  ``Ext`` products and
inverses read their coordinates over one denominator and go through
them, as the integer rings of :mod:`formalconn.linalg` do; every other
module computes through those rings.

Field names accepted throughout: "Q", "Q(i)" (= Q(zeta_4)) and
"Q(zeta_m)" for m <= MAX_CYCLOTOMIC_ORDER of degree phi(m) <=
MAX_CYCLOTOMIC_DEGREE.
"""

import functools
import math
from fractions import Fraction

from .errors import NonsplitField, ParseError

_FIELD_CACHE = {}
_ZERO = Fraction(0)

# Bounds on the cyclotomic fields a name may ask for.  A field of degree
# d keeps a (d - 1) x d reduction table, so memory grows with the square
# of the degree (Q(zeta_30030), degree 5760, took 606 MB); m itself is
# bounded first, so that no name makes the parser factor a huge number.
MAX_CYCLOTOMIC_ORDER = 10000
MAX_CYCLOTOMIC_DEGREE = 1024


def _cyclotomic_poly(m):
    """Integer coefficients of Phi_m in ascending degree, as the product
    of (x^d - 1)^mu(m/d) over the divisors d of m.  Each factor is a
    binomial, so multiplying or exactly dividing by it is linear."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(m // d) == 1:
            # p * (x^d - 1)
            poly = [(poly[k - d] if k >= d else 0) - (poly[k] if k < len(poly) else 0)
                    for k in range(len(poly) + d)]
    for d in divisors:
        if _mobius(m // d) == -1:
            # p / (x^d - 1): p[k] = q[k-d] - q[k]
            quot = [0] * (len(poly) - d)
            for k in range(len(quot)):
                quot[k] = (quot[k - d] if k >= d else 0) - poly[k]
            poly = quot
    return poly


def _totient(n):
    phi = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            phi -= phi // p
        p += 1
    return phi - phi // n if n > 1 else phi


def _mobius(n):
    mu = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


class GroundField:
    """The cyclotomic field Q(zeta_m); m=1 is Q itself, m=4 is Q(i)."""

    def __init__(self, m):
        if m in (1, 2):
            m = 1
        self.m = m
        if m == 1:
            self.degree = 1
            self.modulus = None
            self._reduction = None
        else:
            mod = _cyclotomic_poly(m)
            d = len(mod) - 1
            self.degree = d
            self.modulus = mod  # Phi_m: integer coefficients, ascending
            # rows: z^(d+k) expressed in the power basis, k = 0..d-2;
            # integers, since Phi_m is monic over Z
            cur = [-c for c in mod[:d]]
            rows = [cur]
            for _ in range(d - 2):
                top = cur[d - 1]
                cur = [0] + cur[:-1]
                if top:
                    cur = [c + top * r for c, r in zip(cur, rows[0])]
                rows.append(cur)
            self._reduction = rows

    @property
    def name(self):
        if self.m == 1:
            return "Q"
        if self.m == 4:
            return "Q(i)"
        return "Q(zeta_%d)" % self.m

    def __repr__(self):
        return "GroundField(%s)" % self.name

    def __eq__(self, other):
        return isinstance(other, GroundField) and other.m == self.m

    def __hash__(self):
        return hash(("GroundField", self.m))

    # -- element constructors ------------------------------------------

    def zero(self):
        return Fraction(0) if self.m == 1 else Ext(self, (Fraction(0),) * self.degree)

    def one(self):
        return self.from_rational(1)

    def from_rational(self, q):
        q = Fraction(q)
        if self.m == 1:
            return q
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = q
        return Ext(self, tuple(coeffs))

    def from_coords(self, coords):
        coords = [Fraction(c) for c in coords]
        if self.m == 1:
            assert len(coords) == 1
            return coords[0]
        assert len(coords) == self.degree
        return Ext(self, tuple(coords))

    def generator(self):
        if self.m == 1:
            raise NonsplitField("Q has no nontrivial root of unity")
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return Ext(self, tuple(coords))

    def element(self, nums, den):
        """The element with power-basis coordinates nums[i] / den (at
        most phi(m) of them, integers or rationals over one denominator):
        a Fraction over Q, and over Q(zeta_m) an Ext whose missing
        coordinates are zero."""
        coords = [Fraction(v, den) if v else _ZERO for v in nums]
        if self.m == 1:
            return coords[0]
        coords.extend([_ZERO] * (self.degree - len(coords)))
        return Ext(self, tuple(coords))

    # -- reduction modulo Phi_m -------------------------------------------

    def fold(self, coords):
        """Fold the coordinates of degree >= phi(m) (at most 2 phi(m) - 2)
        of the number list ``coords`` back onto the power basis by the
        integer reduction table, in place; returns the list, cut to at
        most phi(m) coordinates."""
        d = self.degree
        red = self._reduction
        for k in range(d, len(coords)):
            c = coords[k]
            if c:
                for i, r in enumerate(red[k - d]):
                    if r:
                        coords[i] += c * r
        del coords[d:]
        return coords

    # -- the integer ring Z[zeta_m] ----------------------------------------

    def dot(self, xs, ys):
        """sum_i x_i y_i for elements x_i, y_i of Z[zeta_m], given by
        their integer power-basis coordinates (at most phi(m) each): one
        convolution and one fold, a list of at most phi(m) coordinates."""
        acc = []
        for a, b in zip(xs, ys):
            if a and b:
                top = len(a) + len(b) - 1
                if len(acc) < top:
                    acc.extend([0] * (top - len(acc)))
                for i, x in enumerate(a):
                    if x:
                        for j, y in enumerate(b):
                            acc[i + j] += x * y
        return self.fold(acc)

    def reciprocal(self, a):
        """(den, w) with 1/a = w/den for a nonzero element a of Z[zeta_m]
        (integer coordinates): w is the product of the Galois conjugates
        zeta -> zeta^k (1 < k < m, k prime to m) of a, and den the norm
        a w, a positive int, as Q(zeta_m) has no real embedding (Cohen,
        4.2-4.3)."""
        m, d, powers = self.m, self.degree, self._powers
        w = [1]
        for k in range(2, m):
            if math.gcd(k, m) == 1:
                conj = [0] * d
                for j, c in enumerate(a):
                    if c:
                        for i, z in enumerate(powers[j * k % m]):
                            conj[i] += c * z
                w = self.dot([w], [conj])
        return self.dot([a], [w])[0], w

    @functools.cached_property
    def _powers(self):
        """zeta_m^k in the power basis, k = 0..m-1, for the conjugates;
        built on the first reciprocal."""
        powers = [[1]]
        for _ in range(self.m - 1):
            powers.append(self.fold([0] + powers[-1]))
        return powers

    # -- roots of unity -------------------------------------------------

    def root_of_unity(self, e):
        """A primitive e-th root of unity, or raise NonsplitField:
        zeta_m^(m/e) when e divides m, and (-zeta_m)^(2m/e) when m is odd
        and e divides 2m, as -zeta_m is then a primitive 2m-th root."""
        if not self.has_root_of_unity(e):
            raise NonsplitField("no primitive %d-th root of unity in %s" % (e, self.name))
        if e == 1:
            return self.one()
        if e == 2:
            return self.from_rational(-1)
        if self.m % e == 0:
            return self.generator() ** (self.m // e)
        return (-self.generator()) ** (2 * self.m // e)

    def has_root_of_unity(self, e):
        """Whether Q(zeta_m) holds a primitive e-th root of unity: the
        roots of unity in it are the m-th ones, and the 2m-th ones when m
        is odd."""
        return e in (1, 2) or self.m % e == 0 or (self.m % 2 == 1 and 2 * self.m % e == 0)


class Ext:
    """Element of Q(zeta_m) in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def _lift(self, other):
        if isinstance(other, Ext):
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Ext(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return Ext(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Ext(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Ext(self.field, tuple(a * other for a in self.coords))
        if not isinstance(other, Ext):
            return NotImplemented
        da, a = _numerators(self.coords)
        db, b = _numerators(other.coords)
        return self.field.element(self.field.dot([a], [b]), da * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self):
        """1/self = den / a = den w / N(a) for self = a / den with a in
        Z[zeta_m], by :meth:`GroundField.reciprocal`."""
        den, a = _numerators(self.coords)
        if not any(a):
            raise ZeroDivisionError("division by zero in %s" % self.field.name)
        norm, w = self.field.reciprocal(a)
        return self.field.element([den * c for c in w], norm)

    def __eq__(self, other):
        if isinstance(other, Ext):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.coords[0] == other and all(c == 0 for c in self.coords[1:])
        return NotImplemented

    def __hash__(self):
        if all(c == 0 for c in self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.field.m, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return "Ext(%s, %s)" % (self.field.name, format_scalar(self))


def _numerators(coords):
    """(den, nums): Fraction coordinates as integers over their common
    denominator."""
    den = math.lcm(*(c.denominator for c in coords))
    return den, [c.numerator * (den // c.denominator) for c in coords]


# -- generic helpers (work on Fraction and Ext alike) ------------------


def get_field(name):
    m = _parse_field_name(name)
    if m not in _FIELD_CACHE:
        _FIELD_CACHE[m] = GroundField(m)
    return _FIELD_CACHE[m]


def _parse_field_name(name):
    if not isinstance(name, str):
        raise ParseError("field name must be a string, got %r" % (name,))
    name = name.strip()
    if name in ("Q", "QQ"):
        return 1
    if name in ("Q(i)", "Qi", "Q(I)"):
        return 4
    if name.startswith("Q(zeta_") and name.endswith(")"):
        digits = name[len("Q(zeta_"):-1]
        if digits.isascii() and digits.isdigit():
            significant = digits.lstrip("0") or "0"
            if len(significant) > len(str(MAX_CYCLOTOMIC_ORDER)) or \
                    int(significant) > MAX_CYCLOTOMIC_ORDER:
                raise ParseError("field %r: m exceeds %d" % (name[:40], MAX_CYCLOTOMIC_ORDER))
            m = int(significant)
            if m >= 1:
                degree = _totient(m)
                if degree > MAX_CYCLOTOMIC_DEGREE:
                    raise ParseError("field %r has degree %d > %d"
                                     % (name, degree, MAX_CYCLOTOMIC_DEGREE))
                return m
    raise ParseError("unknown field name %r" % name)


def is_zero(x):
    return not x if isinstance(x, Ext) else x == 0


def scalar_inverse(x):
    """1/x for a rational or an Ext."""
    return Fraction(1) / x if isinstance(x, (int, Fraction)) else x.inverse()


def is_rational_value(x):
    if isinstance(x, (int, Fraction)):
        return True
    return all(c == 0 for c in x.coords[1:])


def congruent_mod_z(a, b):
    """True iff a - b is a rational integer."""
    d = a - b
    return is_rational_value(d) and as_fraction(d).denominator == 1


def as_fraction(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if is_rational_value(x):
        return x.coords[0]
    raise NonsplitField("value is not rational: %s" % format_scalar(x))


def scalar_coords(x):
    if isinstance(x, Ext):
        return list(x.coords)
    return [Fraction(x)]


def sort_key(x):
    """Deterministic total order on ground-field elements: lexicographic
    on (numerator, denominator) per power-basis coordinate.  The key
    depends on the value only: a rational value has the same key as a
    Fraction and as an Ext."""
    coords = scalar_coords(x)
    while len(coords) > 1 and not coords[-1]:
        coords.pop()
    return _SortKey(tuple((c.numerator, c.denominator) for c in coords))


class _SortKey:
    """Coordinate pairs with trailing zeros dropped; two keys compare as
    if the shorter were padded with zero coordinates, so that keys of
    one field order as their full coordinate vectors do.  Sorting, min
    and tuple comparison need only == and <."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = pairs

    def __eq__(self, other):
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __lt__(self, other):
        a, b = self.pairs, other.pairs
        if len(a) != len(b):
            pad = ((0, 1),) * abs(len(a) - len(b))
            a, b = (a + pad, b) if len(a) < len(b) else (a, b + pad)
        return a < b


# -- parsing / printing ------------------------------------------------


def format_scalar(x):
    """Canonical string form: "p/q" over Q, "p/q+r/s*i" over Q(i) and
    "p/q+r/s*z+..." for general cyclotomic fields."""
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return "%d/%d" % (q.numerator, q.denominator)
    sym = "i" if x.field.m == 4 else "z"
    parts = []
    for k, c in enumerate(x.coords):
        if k == 0:
            parts.append("%d/%d" % (c.numerator, c.denominator))
        elif c != 0:
            mono = sym if k == 1 else "%s^%d" % (sym, k)
            frag = "%d/%d*%s" % (c.numerator, c.denominator, mono)
            parts.append(frag if c < 0 else "+" + frag)
    if len(parts) == 1:
        return parts[0]
    return "".join(p if p.startswith(("+", "-")) or i == 0 else "+" + p
                   for i, p in enumerate(parts))


def parse_scalar(text, field):
    """Inverse of :func:`format_scalar` (also accepts bare integers)."""
    text = text.replace(" ", "")
    if not text:
        raise ParseError("empty scalar")
    sym = "i" if field.m == 4 else "z"
    coords = [Fraction(0)] * max(field.degree, 1)
    for term in _split_terms(text):
        coef, power = _parse_term(term, sym)
        if power >= len(coords):
            raise ParseError("power %d exceeds field degree in %r" % (power, text))
        coords[power] += coef
    if field.m == 1:
        if len(coords) > 1 and any(coords[1:]):
            raise ParseError("non-rational literal %r over Q" % text)
        return coords[0]
    return field.from_coords(coords)


def _split_terms(text):
    terms, cur = [], ""
    for idx, ch in enumerate(text):
        if ch in "+-" and idx > 0 and text[idx - 1] not in "+-*/^(":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    return [t for t in terms if t not in ("", "+")]


def _parse_term(term, sym):
    if term.startswith("+"):
        term = term[1:]
    sign = 1
    if term.startswith("-"):
        sign = -1
        term = term[1:]
    if "*" in term:
        coef_s, mono = term.split("*", 1)
    elif term.startswith(sym):
        coef_s, mono = "1", term
    else:
        coef_s, mono = term, ""
    if mono == "":
        power = 0
    elif mono == sym:
        power = 1
    elif mono.startswith(sym + "^"):
        power = int(mono[len(sym) + 1:])
    else:
        raise ParseError("bad monomial %r" % term)
    try:
        coef = Fraction(coef_s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad coefficient %r" % coef_s) from exc
    return sign * coef, power
