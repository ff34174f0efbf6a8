"""Strata: depth data attached to a parahoric filtration.

A stratum is (P, r, beta) with beta in P^(-r)/P^(1-r) stored through a
representative matrix under a fixed one-form of order -1.  This module
decides fundamentality through the stratum characteristic polynomial,
produces the gcd reduction along the sub-chain L'^j = L^(jg), splits
fundamental strata along the coprime factorization of that polynomial,
and classifies regular strata at every depth from that polynomial and
one split (see :func:`is_regular`).

A split reads only the leading term (after Bremer-Sage): the graded
pattern of y = beta^e t^r is constant and block diagonal by phase
class, and the kernels of the coprime factor powers at it give a
constant basis change in the Levi of P that makes Ad(g^-1)(beta) block
diagonal modulo P^(1-r).  The depth-zero split, the residue eigenbasis,
is built the same way.  Nothing is lifted over k[[t]]: the levels above
-r are left to the level loop of :func:`formalconn.connections.diagonalize`.
"""

import itertools
import math
from fractions import Fraction

from .errors import GcdViolation, IrreducibleStratum, NonsplitField, UnsupportedDepth
from .linalg import charpoly, kinverse, kmatmul, knullspace, kzeros
from .matrices import LaurentMatrix, constant_product
from .parahoric import (LatticeChain, ParahoricContext, graded_component,
                        in_filtration)
from .polys import (kpoly_deg, kpoly_factor, kpoly_factor_squarefree, kpoly_format, kpoly_mul,
                    kpoly_squarefree_parts, kpoly_trim, nth_root_in_field)
from .scalars import Ext, congruent_mod_z, get_field, is_zero, sort_key
from .series import LaurentScalar, OneForm

# Diagonalization reduces every level from -r up, so its work grows with
# the depth r; the regularity test refuses depths above this bound with
# UnsupportedDepth.
MAX_DEPTH = 1000


def infer_field(*matrices):
    for m in matrices:
        for row in m.rows:
            for entry in row:
                for c in entry.coeffs.values():
                    if isinstance(c, Ext):
                        return c.field
    return get_field("Q")


class Stratum:
    """(P, r, beta) with the representative beta_rep in P^(-r)."""

    __slots__ = ("ctx", "r", "beta", "nu")

    def __init__(self, ctx, r, beta, nu=None):
        if nu is None:
            nu = OneForm.dt_over_t()
        if nu.order != -1:
            raise GcdViolation("stratum representatives are stored against a form of order -1")
        self.ctx = ctx
        self.r = r
        self.beta = beta
        self.nu = nu
        if not in_filtration(beta, ctx, -r):
            raise GcdViolation("representative does not lie in P^(-r) = P^%d" % -r)

    @property
    def n(self):
        return self.ctx.n

    @property
    def e(self):
        return self.ctx.period

    @property
    def slope(self):
        return Fraction(self.r, self.e)

    def graded_rep(self):
        return graded_component(self.beta, self.ctx, -self.r)

    def to_json(self):
        return {"blocks": list(self.ctx.chain.blocks), "r": self.r,
                "beta": self.beta.to_json(), "nu": self.nu.to_json()}

    def __repr__(self):
        return "Stratum(blocks=%r, r=%d)" % (self.ctx.chain.blocks, self.r)


class StratumCharPoly:
    """Monic degree-n characteristic polynomial of the y-coset."""

    __slots__ = ("poly",)

    def __init__(self, poly):
        self.poly = kpoly_trim(poly)

    def __repr__(self):
        return "StratumCharPoly(%s)" % kpoly_format(self.poly)

    def format(self):
        return kpoly_format(self.poly)


def stratum_char_poly(s):
    """char poly of y = beta^(e/g) t^(r/g) + P^1 via the Levi
    identification; g = gcd(r, e)."""
    return StratumCharPoly(charpoly(_y_pattern(s, s.graded_rep())))


def _y_pattern(s, lead):
    """Levi pattern of y = beta^(e/g) t^(r/g) + P^1, g = gcd(r, e), from
    the leading term ``lead`` = s.graded_rep().

    Multiplying by t^(r/g) only relocates coefficient slots, so y's
    Levi pattern is the (e/g)-th power of the leading pattern of beta
    and the computation stays inside constant matrices.
    """
    g = math.gcd(s.r, s.e) if s.r else s.e
    power = lead
    for _ in range(s.e // g - 1):
        power = power.compose(lead)
    return power.pattern


def is_fundamental(s):
    """True iff the gcd-reduced stratum's characteristic polynomial has
    a nonzero root; decided through the equivalent graded criterion
    (the leading term is not nilpotent on gr of the chain)."""
    red = reduce_stratum(s)
    return not red.graded_rep().is_nilpotent()


def reduce_stratum(s):
    """The canonical reduction along the sub-chain L'^j = L^(jg) with
    g = gcd(r, e); afterwards gcd(r', e') = 1 (and r = 0 lands on the
    maximal parahoric).  Slope is preserved."""
    g = math.gcd(s.r, s.e) if s.r else s.e
    if g == 1:
        return s
    e_new = s.e // g
    phases = tuple(p // g for p in s.ctx.phases)
    blocks = tuple(phases.count(e_new - 1 - b) for b in range(e_new))
    ctx = ParahoricContext(LatticeChain(s.n, blocks), phases)
    return Stratum(ctx, s.r // g, s.beta, s.nu)


class SplitPart:
    """One summand of a split stratum: ambient coordinate slots (after
    the basis change) plus the induced stratum in its own coordinates."""

    __slots__ = ("slots", "stratum")

    def __init__(self, slots, stratum):
        self.slots = slots
        self.stratum = stratum

    def __repr__(self):
        return "SplitPart(slots=%r, %r)" % (self.slots, self.stratum)


def split_stratum(s, field=None):
    """Split a fundamental stratum along the coprime factorization of
    its characteristic polynomial.

    Returns (g, parts): a constant basis change g in the Levi of P
    (entries only inside the phase classes), such that Ad(g^-1)(beta)
    is block diagonal modulo P^(1-r) with respect to the parts'
    coordinate slots; parts are sorted by the total order on their
    phi-roots.

    Raises IrreducibleStratum for pure strata (single linear factor
    power) and NonsplitField when phi does not factor over the field.
    """
    g, _, _, parts = _split_stratum(s, infer_field(s.beta) if field is None else field)
    return g, parts


def _split_stratum(s, field):
    """(g, g^-1, Ad(g^-1)(beta), parts) for :func:`split_stratum`: the
    constant split of :func:`_constant_split` at y's pattern, along the
    coprime factor powers of phi."""
    if s.r > 0 and math.gcd(s.r, s.e) != 1:
        raise GcdViolation("split requires gcd(r, e) = 1; reduce first")
    if not is_fundamental(s):
        raise GcdViolation("split requires a fundamental stratum")
    y = _y_pattern(s, s.graded_rep())
    phi = charpoly(y)
    factors = kpoly_factor(phi, field)
    if len(factors) == 1:
        fac, _ = factors[0]
        if kpoly_deg(fac) == 1:
            raise IrreducibleStratum("pure stratum: phi = %s" % kpoly_format(phi))
        raise NonsplitField("phi has no root in %s: %s" % (field.name, kpoly_format(phi)))
    factors.sort(key=lambda fm: _split_order(fm[0]))
    split = _constant_split(s, y, [_power(fac, mult, field) for fac, mult in factors])
    # g is constant inside the phase classes, so the off-block entries of
    # g^-1 beta g keep the windows and minimum orders that Stratum and
    # graded_rep certify for beta, and their leading terms vanish
    assert off_block_filtration_ok(s.ctx, split[2], [part.slots for part in split[3]], s.r)
    return split


def _constant_split(s, pat, powers):
    """(g, g^-1, Ad(g^-1)(beta), parts) for a constant Levi basis change
    g built from a degree-0 graded pattern that commutes with the
    leading term of beta (y's pattern, the residue at depth zero)
    and pairwise coprime polynomials whose product annihilates it.

    The pattern is block diagonal by phase class.  In each class, the
    kernels of the polynomials at the class's block (in the order
    given) fill the class's slots in ascending order, and the slots of
    the i-th kernel form part i.  The leading term of beta maps each
    kernel into the same kernel of its target class, so Ad(g^-1)(beta)
    is block diagonal modulo P^(1-r); g is constant inside the phase
    classes, so it lies in the Levi of P and tau(g) = 0."""
    g = kzeros(s.n, s.n)
    slot_lists = [[] for _ in powers]
    for cls in s.ctx.phase_classes:
        block = [[pat[u][v] for v in cls] for u in cls]
        slots = iter(cls)
        for slot_list, power in zip(slot_lists, powers):
            for vec in knullspace(_poly_at(power, block)):
                u = next(slots)
                slot_list.append(u)
                for w, x in zip(cls, vec):
                    g[w][u] = x
    g_inv = kinverse(g)
    conj = constant_product(g_inv, s.beta, g)
    parts = _split_parts(s, conj, [sorted(sl) for sl in slot_lists])
    return (LaurentMatrix.from_scalar_matrix(g), LaurentMatrix.from_scalar_matrix(g_inv),
            conj, parts)


def _poly_at(poly, mat):
    """The constant matrix poly(mat), by Horner's rule."""
    acc = [[poly[-1] if i == j else 0 for j in range(len(mat))] for i in range(len(mat))]
    for c in reversed(poly[:-1]):
        acc = kmatmul(acc, mat)
        for i, row in enumerate(acc):
            row[i] = row[i] + c
    return acc


def _split_parts(s, beta_conj, slot_lists):
    """One SplitPart per slot list, holding the stratum that the
    conjugated representative induces on those slots."""
    parts = []
    for slots in slot_lists:
        sub_ctx, sub_beta, picked = _restrict_to_slots(s.ctx, beta_conj, slots)
        parts.append(SplitPart(picked, Stratum(sub_ctx, s.r, sub_beta, s.nu)))
    return parts


def _split_order(fac):
    """Linear factors first, in the sort order of their roots, then the
    others by their coefficients."""
    if kpoly_deg(fac) == 1:
        return (0, sort_key(-fac[0]))
    return (1, tuple(sort_key(c) for c in fac))


def _restrict_to_slots(ctx, mat, slots):
    """Sub-context and sub-matrix on the given coordinate slots; the
    off-slot blocks must lie in P^(1-r)."""
    e = ctx.period
    sub_phases_raw = [ctx.phases[u] for u in slots]
    residues = sorted(set(p % e for p in sub_phases_raw))
    e_new = len(residues)
    rank = {res: idx for idx, res in enumerate(residues)}
    # order slots so equal phases stay together, descending phase
    order = sorted(range(len(slots)), key=lambda i: (-sub_phases_raw[i], slots[i]))
    new_phases = [rank[sub_phases_raw[i] % e] for i in order]
    blocks = tuple(new_phases.count(e_new - 1 - b) for b in range(e_new))
    sub_ctx = ParahoricContext(LatticeChain(len(slots), blocks), new_phases)
    picked = [slots[i] for i in order]
    sub = LaurentMatrix([[mat.rows[u][v] for v in picked] for u in picked])
    return sub_ctx, sub, picked


def off_block_filtration_ok(ctx, mat, slot_lists, r):
    """Check that blocks mixing different parts lie in P^(1-r)."""
    part_of = {}
    for idx, slots in enumerate(slot_lists):
        for u in slots:
            part_of[u] = idx
    n = ctx.n
    rows = [[mat.rows[u][v] if part_of[u] != part_of[v] else LaurentScalar.zero()
             for v in range(n)] for u in range(n)]
    return in_filtration(LaurentMatrix(rows), ctx, 1 - r)


class RegularityReport:
    """Outcome of the regularity test: torus data and per-block leading
    coefficients when regular, a reason otherwise.

    A regular stratum of rank n > e also carries the split of the
    gcd-reduced stratum into its m = n/e pure parts: the basis change
    ``gauge`` g, its inverse ``gauge_inverse``, the representative
    conjugated by it, ``conjugate`` = g^-1 beta g, which is block
    diagonal modulo P^(1-r), and the ``parts``, one per eigenvalue of y
    in the order of ``leading``.  At positive depth g and the parts are
    what :func:`split_stratum` returns; at depth zero g is the constant
    residue eigenbasis and each part is one eigenvector's slot.  g is
    the one constant split (see the module docstring), so for a stratum
    built from a connection's matrix, g^-1 . nabla is ``conjugate``
    itself.  All four are None for a pure stratum (n = e), rank one
    included."""

    __slots__ = ("regular", "reason", "e", "m", "leading", "gauge", "gauge_inverse",
                 "conjugate", "parts")

    def __init__(self, regular, reason=None, e=None, m=None, leading=None,
                 gauge=None, gauge_inverse=None, conjugate=None, parts=None):
        self.regular = regular
        self.reason = reason
        self.e = e
        self.m = m
        self.leading = leading
        self.gauge = gauge
        self.gauge_inverse = gauge_inverse
        self.conjugate = conjugate
        self.parts = parts

    def __bool__(self):
        return self.regular

    def __repr__(self):
        if self.regular:
            return "RegularityReport(regular, e=%d, m=%d)" % (self.e, self.m)
        return "RegularityReport(not regular: %s)" % self.reason


def is_regular(s, field=None):
    """Classify the stratum by one rule at every depth (Bremer-Sage).

    After the gcd reduction gcd(r, e) = 1, and r = 0 lands on e = 1.  At
    r > 0 the chain must be uniform and the stratum fundamental, which
    fails exactly when phi = X^n (see :func:`is_fundamental`).  Then the
    stratum is regular iff every eigenvalue of y = beta^e t^r has
    multiplicity e, and 0 is one only at e = 1: the square-free
    decomposition of phi is P^e, one square-free P of multiplicity e,
    and P(0) != 0 if e > 1.
    The roots of P, and at e > 1 the roots that :func:`pure_leading`
    takes, must lie in the field, else NonsplitField is raised; at r = 0
    the roots must be pairwise incongruent modulo Z.

    Nothing else needs checking.  On gr of the chain, beta maps phase
    class p onto class p - r, invertibly on the generalized eigenspace of
    an eigenvalue c != 0; as gcd(r, e) = 1, that eigenspace meets every
    class in the same dimension.  Multiplicity e leaves one slot per
    class, so the part is pure: y is scalar on it, it splits no further,
    and its leading datum (c at e = 1, at e > 1 the root alpha of
    :func:`pure_leading`, with alpha^e = c) is distinct from the others.

    A stratum with n = e is one pure block, read without factoring.
    Otherwise P is factored once, and one constant split along the powers
    (X - c)^e, in the sort order of c, gives the report's split (see
    :class:`RegularityReport`).
    """
    if field is None:
        field = infer_field(s.beta)
    if s.r > MAX_DEPTH:
        raise UnsupportedDepth("stratum depth %d exceeds %d" % (s.r, MAX_DEPTH))
    s = reduce_stratum(s)
    n, e, r = s.n, s.e, s.r
    if not s.ctx.uniform:
        return RegularityReport(False, reason="parahoric is not uniform")
    lead = s.graded_rep()
    y = _y_pattern(s, lead)
    phi = charpoly(y)
    if r and all(is_zero(c) for c in phi[:-1]):
        return RegularityReport(False, reason="stratum is not fundamental")
    if n == e:
        alpha = _pure_root(lead, field) if n > 1 else s.beta.rows[0][0].coeff_or_zero(-r)
        return RegularityReport(True, e=e, m=1, leading=[alpha])
    decomposition = kpoly_squarefree_parts(phi)
    if [mult for _, mult in decomposition] != [e]:
        return RegularityReport(False, reason="repeated residue eigenvalue" if r == 0 else
                                "an eigenvalue of y has multiplicity other than e = %d" % e)
    ((squarefree, _),) = decomposition
    if e > 1 and is_zero(squarefree[0]):
        return RegularityReport(False, reason="nilpotent summand not of the allowed shape")
    factors = sorted(kpoly_factor_squarefree(squarefree, field), key=_split_order)
    nonlinear = [fac for fac in factors if kpoly_deg(fac) > 1]
    if nonlinear and r == 0:
        raise NonsplitField("residue eigenvalues do not all lie in %s" % field.name)
    if nonlinear:
        phi_part = kpoly_format(_power(nonlinear[0], e, field))
        raise NonsplitField("regularity undecidable over %s: phi has no root in %s: %s"
                            % (field.name, field.name, phi_part))
    roots = [-fac[0] for fac in factors]
    if r == 0 and any(congruent_mod_z(a, b) for a, b in itertools.combinations(roots, 2)):
        return RegularityReport(False, reason="residue eigenvalues congruent modulo Z")
    gauge, gauge_inverse, conjugate, parts = _constant_split(
        s, y, [_power(fac, e, field) for fac in factors])
    leading = roots if e == 1 else [_pure_root(part.stratum.graded_rep(), field)
                                    for part in parts]
    return RegularityReport(True, e=e, m=n // e, leading=leading, gauge=gauge,
                            gauge_inverse=gauge_inverse, conjugate=conjugate, parts=parts)


def _pure_root(lead, field):
    """alpha of :func:`pure_leading` for the leading term of a pure
    stratum at r > 0."""
    try:
        return pure_leading(lead.pattern, field)[1]
    except NonsplitField as exc:
        raise NonsplitField("regularity undecidable over %s: %s" % (field.name, exc))


def _power(poly, k, field):
    out = [field.one()]
    for _ in range(k):
        out = kpoly_mul(out, poly)
    return out


def pure_leading(pat, field):
    """(xs, alpha) for the graded leading pattern of a pure-candidate
    block, or None unless every row has exactly one nonzero entry.

    xs lists those entries by row.  The leading term is alpha *
    varpi^(-r), possibly after a diagonal renormalization whose
    existence requires an n-th root of the cyclic product of xs: alpha
    is the common value of xs, or else that root.  Raises NonsplitField
    when the root is not in the field.
    """
    xs = []
    for row in pat:
        vals = [x for x in row if not is_zero(x)]
        if len(vals) != 1:
            return None
        xs.append(vals[0])
    if all(x == xs[0] for x in xs):
        return xs, xs[0]
    prod = xs[0]
    for x in xs[1:]:
        prod = prod * x
    alpha = nth_root_in_field(prod, len(xs), field)
    if alpha is None:
        raise NonsplitField("pure block needs an %d-th root of a cyclic product in %s"
                            % (len(xs), field.name))
    return xs, alpha
