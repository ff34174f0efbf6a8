"""Strata: depth data attached to a parahoric filtration.

A stratum is (P, r, beta) with beta in P^(-r)/P^(1-r) stored through a
representative matrix under a fixed one-form of order -1.  This module
decides fundamentality through the stratum characteristic polynomial,
produces the gcd reduction along the sub-chain L'^j = L^(jg), splits
fundamental strata along the coprime factorization of that polynomial,
and classifies regular strata by recursive splitting.

A split reads only the leading term (after Bremer-Sage): the graded
pattern of y = beta^e t^r is constant and block diagonal by phase
class, and the kernels of the coprime factor powers at it give a
constant basis change in the Levi of P that makes Ad(g^-1)(beta) block
diagonal modulo P^(1-r).  The depth-zero split, the residue eigenbasis,
is built the same way.  Nothing is lifted over k[[t]]: the levels above
-r are left to :func:`formalconn.connections.split_connection`.
"""

import itertools
import math
from fractions import Fraction

from .errors import (GcdViolation, IrreducibleStratum, NonsplitField,
                     PrecisionError, UnsupportedDepth)
from .linalg import charpoly, kinverse, kmatmul, knullspace, kzeros, minpoly
from .matrices import LaurentMatrix, constant_product
from .parahoric import (LatticeChain, ParahoricContext, graded_component,
                        in_filtration)
from .polys import (kpoly_deg, kpoly_factor, kpoly_format, kpoly_is_squarefree,
                    kpoly_mul, kpoly_roots, kpoly_trim, nth_root_in_field)
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

    def translate_equal(self, other):
        """Stratum equality: same depth, same chain up to translation,
        same image in P^(-r)/P^(1-r).

        Both contexts are base-point normalized (L^0 = o^n), and the
        only normalized translates differ by multiples of e, which fix
        the phase vector; so the chains coincide exactly and the graded
        patterns (built from phase differences) compare directly."""
        if self.r != other.r or self.n != other.n or self.e != other.e:
            return False
        if self.ctx.phases != other.ctx.phases:
            return False
        return self.graded_rep().pattern == other.graded_rep().pattern

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

    @property
    def degree(self):
        return kpoly_deg(self.poly)

    def __repr__(self):
        return "StratumCharPoly(%s)" % kpoly_format(self.poly)

    def format(self):
        return kpoly_format(self.poly)


def stratum_char_poly(s):
    """char poly of y = beta^(e/g) t^(r/g) + P^1 via the Levi
    identification; g = gcd(r, e)."""
    return StratumCharPoly(charpoly(_y_pattern(s)))


def _y_pattern(s):
    """Levi pattern of y = beta^(e/g) t^(r/g) + P^1, g = gcd(r, e).

    Multiplying by t^(r/g) only relocates coefficient slots, so y's
    Levi pattern is the (e/g)-th power of the leading pattern of beta
    and the computation stays inside constant matrices.
    """
    g = math.gcd(s.r, s.e) if s.r else s.e
    pat = s.graded_rep()
    power = pat
    for _ in range(s.e // g - 1):
        power = power.compose(pat)
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
    counts = {}
    for p in phases:
        counts[p] = counts.get(p, 0) + 1
    blocks = tuple(counts.get(e_new - 1 - b, 0) for b in range(e_new))
    ctx = ParahoricContext(LatticeChain(s.n, blocks), phases, "grouped")
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
    phi-roots.  The regularity test keeps g^-1 and Ad(g^-1)(beta) as
    well (see :class:`RegularityReport`).

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
    y = _y_pattern(s)
    phi = charpoly(y)
    factors = kpoly_factor(phi, field)
    if len(factors) == 1:
        fac, _ = factors[0]
        if kpoly_deg(fac) == 1:
            raise IrreducibleStratum("pure stratum: phi = %s" % kpoly_format(phi))
        raise NonsplitField("phi has no root in %s: %s" % (field.name, kpoly_format(phi)))
    powers = []
    for fac, mult in sorted(factors, key=_group_sort_key):
        power = [field.one()]
        for _ in range(mult):
            power = kpoly_mul(power, fac)
        powers.append(power)
    split = _constant_split(s, y, powers)
    if not off_block_filtration_ok(s.ctx, split[2], [part.slots for part in split[3]], s.r):
        raise PrecisionError("conjugated representative is not split at level r")
    return split


def _constant_split(s, pat, powers):
    """(g, g^-1, Ad(g^-1)(beta), parts) for a constant Levi basis change
    g built from a degree-0 graded pattern that commutes with the
    leading term of beta (y's pattern, or the residue at depth zero)
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
        sub_ctx, sub_beta, picked = _restrict_to_slots(s.ctx, beta_conj, slots, s.r)
        parts.append(SplitPart(picked, Stratum(sub_ctx, s.r, sub_beta, s.nu)))
    return parts


def _group_sort_key(group):
    fac, _ = group
    if kpoly_deg(fac) == 1:
        return (0, sort_key(-fac[0]))
    return (1, tuple(sort_key(c) for c in fac))


def _restrict_to_slots(ctx, mat, slots, r):
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
    counts = {}
    for p in new_phases:
        counts[p] = counts.get(p, 0) + 1
    blocks = tuple(counts.get(e_new - 1 - b, 0) for b in range(e_new))
    sub_ctx = ParahoricContext(LatticeChain(len(slots), blocks), new_phases, "grouped")
    picked = [slots[i] for i in order]
    sub = LaurentMatrix([[mat.rows[u][v] for v in picked] for u in picked])
    return sub_ctx, sub, picked


def off_block_filtration_ok(ctx, mat, slot_lists, r, extra=0):
    """Check that blocks mixing different parts lie in P^(1-r+extra)."""
    part_of = {}
    for idx, slots in enumerate(slot_lists):
        for u in slots:
            part_of[u] = idx
    n = ctx.n
    rows = [[mat.rows[u][v] if part_of[u] != part_of[v] else LaurentScalar.zero()
             for v in range(n)] for u in range(n)]
    return in_filtration(LaurentMatrix(rows), ctx, 1 - r + extra)


class RegularityReport:
    """Outcome of the regularity test: torus data and per-block leading
    coefficients when regular, a reason otherwise.

    A regular stratum that splits also carries its top-level split of
    the gcd-reduced stratum: the basis change ``gauge`` g, its inverse
    ``gauge_inverse``, the representative conjugated by it,
    ``conjugate`` = g^-1 beta g, which is block diagonal modulo P^(1-r),
    and the ``parts``.  At positive depth g and the parts are what
    :func:`split_stratum` returns; at depth zero and rank n >= 2 the
    gauge is the constant residue eigenbasis and each part is one
    eigenvector's slot, in the order of ``leading``.  Both come from the
    one constant split (see the module docstring), so for a stratum
    built from a connection's matrix, g^-1 . nabla is ``conjugate``
    itself.  All four are None for pure strata and rank one."""

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
    """Classify the stratum: regular iff the recursive splitting yields
    n/e blocks of dimension e with pairwise distinct leading data (plus
    the mod-Z condition at depth zero and semisimplicity of y).  A
    regular report carries the top-level split whenever there is one,
    depth zero included (see :class:`RegularityReport`)."""
    if field is None:
        field = infer_field(s.beta)
    if s.r > MAX_DEPTH:
        raise UnsupportedDepth("stratum depth %d exceeds %d" % (s.r, MAX_DEPTH))
    s = reduce_stratum(s)
    if s.r == 0:
        return _regular_depth_zero(s, field)
    if not s.ctx.uniform:
        return RegularityReport(False, reason="parahoric is not uniform")
    if not is_fundamental(s):
        return RegularityReport(False, reason="stratum is not fundamental")
    if not kpoly_is_squarefree(minpoly(_y_pattern(s))):
        return RegularityReport(False, reason="y is not semisimple")
    e = s.e
    try:
        split, leaves = _split_leaves(s, field)
    except NonsplitField as exc:
        raise NonsplitField("regularity undecidable over %s: %s" % (field.name, exc))
    leading = []
    for dim, alpha in leaves:
        if alpha is None:
            return RegularityReport(False, reason="a block of dimension %d is not pure"
                                    % dim)
        if dim != e:
            return RegularityReport(False, reason="block dimension %d != e = %d"
                                    % (dim, e))
        leading.append(alpha)
    zero_count = sum(1 for a in leading if is_zero(a))
    if zero_count > 1 or (zero_count == 1 and e > 1):
        return RegularityReport(False, reason="nilpotent summand not of the allowed shape")
    if len(set(map(sort_key, leading))) != len(leading):
        return RegularityReport(False, reason="leading coefficients are not pairwise distinct")
    gauge, gauge_inverse, conjugate, parts = split or (None,) * 4
    return RegularityReport(True, e=e, m=s.n // e, leading=leading, gauge=gauge,
                            gauge_inverse=gauge_inverse, conjugate=conjugate, parts=parts)


def _regular_depth_zero(s, field):
    """Depth zero: the residue eigenvalues must lie in the field, be
    simple and be pairwise incongruent modulo Z; they are reported as
    the leading data, in sort order.  From rank two on, the split is
    the constant eigenbasis in that order, one singleton part each."""
    n = s.n
    pat = s.graded_rep().pattern
    roots, nonsplit = kpoly_roots(charpoly(pat), field)
    if kpoly_deg(nonsplit) > 0:
        raise NonsplitField("residue eigenvalues do not all lie in %s" % field.name)
    if any(mult > 1 for _, mult in roots):
        return RegularityReport(False, reason="repeated residue eigenvalue")
    vals = sorted((root for root, _ in roots), key=sort_key)
    if any(congruent_mod_z(a, b) for a, b in itertools.combinations(vals, 2)):
        return RegularityReport(False, reason="residue eigenvalues congruent modulo Z")
    if n == 1:
        return RegularityReport(True, e=1, m=1, leading=vals)
    # each eigenvalue is a simple root, so its eigenspace is a line
    gauge, gauge_inverse, conjugate, parts = _constant_split(
        s, pat, [[-root, field.one()] for root in vals])
    return RegularityReport(True, e=1, m=n, leading=vals, gauge=gauge,
                            gauge_inverse=gauge_inverse, conjugate=conjugate, parts=parts)


def _split_leaves(s, field):
    """Split recursively.  Returns (split, leaves): the top-level split
    (g, g^-1, Ad(g^-1)(beta), parts) of s (None for rank one and pure
    strata) and, for every leaf block, (dimension, alpha) with alpha the
    pure-block leading coefficient (None if the block is neither pure
    nor one-dimensional)."""
    if s.n == 1:
        return None, [(1, s.beta.rows[0][0].coeff_or_zero(-s.r))]
    if s.n == s.e and s.ctx.uniform and math.gcd(s.r, s.e) == 1:
        # One nonzero entry xs[u] per row of the pattern on the complete
        # chain: as gcd(r, e) = 1 its e-th power is the scalar prod(xs),
        # so phi = (X - prod(xs))^n and split_stratum would only raise
        # IrreducibleStratum after factoring it.  A zero row makes the
        # stratum non-fundamental, which split_stratum reports.
        head = pure_leading(s.graded_rep().pattern, field)
        if head is not None:
            return None, [(s.n, head[1])]
    try:
        split = _split_stratum(s, field)
    except IrreducibleStratum:
        # phi is a power of one linear factor, and the stratum not pure
        return None, [(s.n, None)]
    leaves = []
    for part in split[3]:
        sub = part.stratum
        if sub.n > 1 and not is_fundamental(sub):
            leaves.append((sub.n, None))
        else:
            leaves.extend(_split_leaves(sub, field)[1])
    return split, leaves


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
