"""Formal types and the relative affine Weyl group action.

A formal type of depth r on torus data (e, m) is the truncated Cartan
representative A = sum_j sum_{d=-r}^0 a_{j,d} varpi_E^d eps_j; the
affine Weyl group Sigma_m x (Z/e)^m x Z^m acts by permuting blocks,
twisting varpi-degrees by roots of unity, and shifting the degree-zero
coefficients by (1/e) Z.  Every orbit has a canonical representative
(degree-zero coefficients translated into [0, 1/e), each block twisted
to its least form, blocks sorted), so formal isomorphism is equality of
canonical forms.
"""

import math
import warnings
from fractions import Fraction

from .errors import ParseError, ShapeMismatch
from .scalars import (congruent_mod_z, format_scalar, is_zero, parse_scalar,
                      scalar_coords, sort_key)
from .series import LaurentScalar
from .matrices import LaurentMatrix
from .strata import Stratum
from .torus import TorusData, ToralElement, lead_collision


class FormalType:
    """Coefficients a_{j,d} of the Cartan representative, d in [-r, 0]."""

    __slots__ = ("torus", "depth", "coeffs", "field")

    def __init__(self, torus, depth, coeffs, field):
        assert len(coeffs) == torus.m
        self.torus = torus
        self.depth = depth
        self.coeffs = [list(row) for row in coeffs]
        for row in self.coeffs:
            assert len(row) == depth + 1
        self.field = field

    @property
    def e(self):
        return self.torus.e

    @property
    def m(self):
        return self.torus.m

    @property
    def n(self):
        return self.torus.n

    def leading(self):
        return [row[0] for row in self.coeffs]

    def toral(self):
        blocks = []
        for row in self.coeffs:
            blocks.append({-self.depth + i: c for i, c in enumerate(row)
                           if not is_zero(c)})
        return ToralElement(self.torus, blocks)

    def realization(self):
        return self.toral().realization()

    def induced_stratum(self):
        return Stratum(self.torus.context(), self.depth, self.realization())

    def same_shape(self, other):
        return self.torus == other.torus and self.depth == other.depth

    def __eq__(self, other):
        if not isinstance(other, FormalType):
            return NotImplemented
        return self.same_shape(other) and all(
            a == b for ra, rb in zip(self.coeffs, other.coeffs)
            for a, b in zip(ra, rb))

    def to_json(self):
        return {"e": self.e, "m": self.m, "r": self.depth,
                "coeffs": [[format_scalar(c) for c in row] for row in self.coeffs]}

    @classmethod
    def from_json(cls, data, field):
        if not isinstance(data, dict):
            raise ParseError("formal type must be an object")
        sizes = [data.get(key) for key in ("e", "m", "r")]
        if any(isinstance(v, bool) or not isinstance(v, int) for v in sizes) or \
                min(sizes[0], sizes[1]) < 1 or sizes[2] < 0:
            raise ParseError("formal type needs integers e >= 1, m >= 1 and r >= 0")
        e, m, r = sizes
        coeffs = data.get("coeffs")
        if not isinstance(coeffs, list) or len(coeffs) != m or \
                not all(isinstance(row, list) and len(row) == r + 1 for row in coeffs):
            raise ParseError("formal type coefficients must be %d rows of %d" % (m, r + 1))
        coeffs = [[parse_scalar(str(c), field) for c in row] for row in coeffs]
        return cls(TorusData(e, m), r, coeffs, field)

    def __repr__(self):
        rows = "; ".join(",".join(format_scalar(c) for c in row) for row in self.coeffs)
        return "FormalType(e=%d, m=%d, r=%d: %s)" % (self.e, self.m, self.depth, rows)


class WeylElement:
    """Element of the relative affine Weyl group: a block permutation,
    per-block Galois twists in Z/e, and per-block integer translations."""

    __slots__ = ("perm", "galois", "transl")

    def __init__(self, perm, galois, transl):
        self.perm = tuple(perm)
        self.galois = tuple(galois)
        self.transl = tuple(transl)

    def compose(self, other):
        """self after other: (self*other) . A = self . (other . A)."""
        m = len(self.perm)
        assert len(other.perm) == m
        perm = tuple(self.perm[other.perm[j]] for j in range(m))
        inv1 = _inverse_perm(self.perm)
        galois = tuple(self.galois[j] + other.galois[inv1[j]] for j in range(m))
        transl = tuple(self.transl[j] + other.transl[inv1[j]] for j in range(m))
        return WeylElement(perm, galois, transl)

    def inverse(self):
        m = len(self.perm)
        inv = _inverse_perm(self.perm)
        galois = tuple(-self.galois[self.perm[j]] for j in range(m))
        transl = tuple(-self.transl[self.perm[j]] for j in range(m))
        return WeylElement(inv, galois, transl)

    def normalized(self, e):
        return WeylElement(self.perm, tuple(g % e for g in self.galois), self.transl)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return (self.perm, self.galois, self.transl) == \
            (other.perm, other.galois, other.transl)

    def to_json(self):
        return {"perm": list(self.perm), "galois": list(self.galois),
                "translation": list(self.transl)}

    def __repr__(self):
        return "WeylElement(perm=%r, galois=%r, transl=%r)" % (
            self.perm, self.galois, self.transl)


def _inverse_perm(perm):
    inv = [0] * len(perm)
    for j, p in enumerate(perm):
        inv[p] = j
    return tuple(inv)


def validate_formal_type(a):
    """All invariants, with diagnostics: gcd(r,e) = 1 at positive depth,
    nonzero leading coefficients with pairwise distinct e-th powers
    (:func:`formalconn.torus.lead_collision`), and at depth zero a split
    torus and values pairwise incongruent modulo Z.  Together these are
    the regularity of the induced stratum, which
    :func:`formalconn.strata.is_regular` decides from its characteristic
    polynomial and one split."""
    diags = []
    r, e = a.depth, a.e
    if r > 0:
        if math.gcd(r, e) != 1:
            diags.append("gcd(depth, e) = %d != 1" % math.gcd(r, e))
        lead = a.leading()
        if any(is_zero(c) for c in lead):
            diags.append("a leading coefficient vanishes")
        clash = lead_collision(lead, e)
        if clash:
            diags.append(clash)
    else:
        if e != 1:
            diags.append("depth zero requires a split torus (e = 1)")
        vals = [row[-1] for row in a.coeffs]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if congruent_mod_z(vals[i], vals[j]):
                    diags.append("coefficients %d and %d congruent modulo Z" % (i, j))
    return (not diags), diags


def weyl_act(w, a):
    """The affine action: blocks permuted, varpi-degrees Galois twisted,
    degree-zero coefficients shifted by -transl/e."""
    m, e, r = a.m, a.e, a.depth
    if len(w.perm) != m:
        raise ShapeMismatch("Weyl element on %d blocks applied to %d blocks"
                            % (len(w.perm), m))
    zeta = None
    if any(g % e for g in w.galois):
        zeta = a.field.root_of_unity(e)  # NonsplitField when unavailable
    inv = _inverse_perm(w.perm)
    new_coeffs = []
    for j in range(m):
        row = list(a.coeffs[inv[j]])
        g = w.galois[j] % e
        if g:
            row = _twist_row(row, g, zeta, r, e)
        row[-1] = row[-1] - Fraction(w.transl[j], e)
        new_coeffs.append(row)
    return FormalType(a.torus, r, new_coeffs, a.field)


def _twist_row(row, g, zeta, r, e):
    """The block's coefficient of varpi^d (d = -r..0) times zeta^(g d)."""
    return [c * zeta ** ((g * (i - r)) % e) for i, c in enumerate(row)]


def _canonical(a):
    """(key, w): weyl_act(w, a) is the canonical representative of the
    orbit of a and key is its tuple of sort keys.

    Each block is translated so that the rational coordinate of its
    degree-zero coefficient lies in [0, 1/e), then twisted by the g in
    Z/e that minimizes it under sort_key (g = 0 when the field lacks the
    e-th roots of unity), and the blocks are sorted."""
    e, r, field = a.e, a.depth, a.field
    twists = range(e) if field.has_root_of_unity(e) else (0,)
    zeta = field.root_of_unity(e) if len(twists) > 1 else None
    zero = field.zero()
    blocks = []
    for row in a.coeffs:
        row = [c + zero for c in row]  # one coefficient type
        t = math.floor(e * scalar_coords(row[-1])[0])
        row[-1] = row[-1] - Fraction(t, e)
        key, g = min((tuple(map(sort_key, _twist_row(row, g, zeta, r, e) if g else row)), g)
                     for g in twists)
        blocks.append((key, g, t))
    order = sorted(range(a.m), key=lambda j: blocks[j][0])
    key = tuple(blocks[j][0] for j in order)
    w = WeylElement(_inverse_perm(order), tuple(blocks[j][1] for j in order),
                    tuple(blocks[j][2] for j in order))
    return key, w


def orbit_equivalent(a, b):
    """The unique w with weyl_act(w, b) = a, or None when the types have
    different shapes or lie in different orbits.

    Both types are brought to the canonical representative of their
    orbit (see ``_canonical``); they are equivalent iff the two agree,
    and w is then read off the two canonicalizing elements.

    When the field lacks the e-th roots of unity (e > 2) the Galois
    twists are left out with a warning, so only permutations and
    translations are considered.
    """
    if not a.same_shape(b):
        return None
    if not a.field.has_root_of_unity(a.e):
        warnings.warn("field %s lacks %d-th roots of unity; orbit comparison "
                      "restricted to permutations and translations"
                      % (a.field.name, a.e))
    key_a, w_a = _canonical(a)
    key_b, w_b = _canonical(b)
    if key_a != key_b:
        return None
    return w_a.inverse().compose(w_b).normalized(a.e)


def weyl_half_sum(torus):
    """The per-block half sum of positive coroots in the upper
    triangular ordering: diag((e-1)/2 - p) in each block."""
    e, m = torus.e, torus.m
    n = torus.n
    rows = [[LaurentScalar.zero() for _ in range(n)] for _ in range(n)]
    for j in range(m):
        for p in range(e):
            u = j * e + p
            rows[u][u] = LaurentScalar.from_scalar(Fraction(e - 1, 2) - p)
    return LaurentMatrix(rows)
