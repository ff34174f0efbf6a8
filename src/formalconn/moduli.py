"""Global connections on the projective line from local polar data.

A configuration lists points of P^1 (exact rationals or infinity) with
principal parts; the residue theorem (the vanishing of the moment map
for the global constant-gauge action) is exactly the assembly
constraint, and the assembled rational matrix is unique with no other
poles.  The module also checks compatible framings against formal
types, decides coadjoint stabilizer membership for the congruence
filtration, and reports extended-orbit dimension accounting.
"""

import math
from fractions import Fraction

from .errors import (DuplicatePoints, ParseError, PrecisionError, ResidueNonzero,
                     SingularGauge, UnsupportedDepth)
from .connections import contained_stratum, gauge_transform
from .formal_types import FormalType
from .linalg import kzeros
from .matrices import LaurentMatrix
from .parahoric import filtration_degree, graded_component, in_filtration, pattern_to_matrix
from .scalars import format_scalar, is_zero, parse_scalar, sort_key
from .series import INF, LaurentScalar, OneForm
from .torus import tame_corestriction

INFINITY = "inf"
# The global matrix keeps one coefficient matrix per pole order, so the
# order a principal part may have is bounded.
MAX_POLE_ORDER = 1000


def _point_key(pt):
    if pt == INFINITY:
        return (1, 0, 1)
    q = Fraction(pt)
    return (0, q.numerator, q.denominator)


class PrincipalPart:
    """Polar data at a point: the matrix of nabla against dz in the
    local coordinate, entries supported in nonpositive degrees."""

    __slots__ = ("point", "part")

    def __init__(self, point, part):
        if point != INFINITY:
            point = Fraction(point)
        for entry in (x for row in part.rows for x in row):
            if any(k > 0 for k in entry.support()):
                raise ParseError("principal part carries positive degrees")
            if any(k < -MAX_POLE_ORDER for k in entry.support()):
                raise ParseError("principal part has a pole of order above %d" % MAX_POLE_ORDER)
        self.point = point
        # degree 0 is killed by the residue pairing against the local
        # maximal parahoric; store the canonical polar part
        self.part = LaurentMatrix([[LaurentScalar({k: c for k, c in x.coeffs.items() if k <= -1})
                                    for x in row] for row in part.rows])

    @property
    def n(self):
        return self.part.n

    def residue(self):
        """Coefficient of (local)^-1: a constant matrix."""
        return [[entry.coeff_or_zero(-1) for entry in row] for row in self.part.rows]

    def polar_orders(self):
        return min((entry.order for row in self.part.rows for entry in row
                    if not entry.is_zero()), default=0)

    def to_json(self):
        return {"point": str(self.point), "part": self.part.to_json()}

    @classmethod
    def from_json(cls, data, field):
        if not isinstance(data, dict) or "point" not in data or "part" not in data:
            raise ParseError("an entry must be an object with \"point\" and \"part\"")
        return cls(_parse_point(data["point"]), LaurentMatrix.from_json(data["part"], field))


def _parse_point(pt):
    if pt in ("inf", "oo", "infinity"):
        return INFINITY
    if isinstance(pt, str) or (isinstance(pt, int) and not isinstance(pt, bool)):
        try:
            return Fraction(pt)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError("point must be a rational number or \"inf\", got %r" % (pt,))


class GlobalConfig:
    """Entries (principal part, optional formal type, optional framing)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        pts = [pp.point for pp, _, _ in entries]
        if len(set(map(str, pts))) != len(pts):
            raise DuplicatePoints("configuration points must be pairwise distinct")
        ns = {pp.n for pp, _, _ in entries}
        if len(ns) > 1:
            raise ParseError("principal parts of mixed rank")
        self.entries = list(entries)

    @property
    def n(self):
        return self.entries[0][0].n

    def to_json(self):
        out = []
        for pp, ft, fr in self.entries:
            item = {"point": str(pp.point), "part": pp.part.to_json()}
            if ft is not None:
                item["formal_type"] = ft.to_json()
            if fr is not None:
                item["framing"] = [[format_scalar(c) for c in row] for row in fr]
            out.append(item)
        return {"entries": out}

    @classmethod
    def from_json(cls, data, field):
        items = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(items, list) or not items:
            raise ParseError("configuration must hold a nonempty \"entries\" list")
        entries = []
        for item in items:
            pp = PrincipalPart.from_json(item, field)
            ft = fr = None
            if "formal_type" in item:
                ft = FormalType.from_json(item["formal_type"], field)
                if ft.n != pp.n:
                    raise ParseError("formal type of rank %d at a rank-%d point" % (ft.n, pp.n))
            if "framing" in item:
                fr = item["framing"]
                if not isinstance(fr, list) or len(fr) != pp.n or \
                        not all(isinstance(row, list) and len(row) == pp.n for row in fr):
                    raise ParseError("framing must be a %d x %d matrix" % (pp.n, pp.n))
                fr = [[parse_scalar(str(c), field) for c in row] for row in fr]
            entries.append((pp, ft, fr))
        return cls(entries)


def moment_map(cfg):
    """Sum of the residues: the moment map of the global constant-gauge
    action evaluated on the configuration."""
    n = cfg.n
    total = kzeros(n, n)
    for pp, _, _ in cfg.entries:
        res = pp.residue()
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, res)]
    return total


class GlobalRationalMatrix:
    """M(z) dz with prescribed polar parts: partial-fractions data plus
    a polynomial part (present only when infinity carries a pole)."""

    __slots__ = ("n", "finite", "poly")

    def __init__(self, n, finite, poly):
        self.n = n
        self.finite = finite    # {Fraction point: [C_1, C_2, ...]}, C_d at (z-x)^-d
        self.poly = poly        # [P_0, P_1, ...] coefficient matrices of z^k

    def local_expansion(self, point, prec):
        """Matrix of nabla against the local dt (t = z - x, or t = 1/z at
        infinity), as a LaurentMatrix with precision prec."""
        n = self.n
        acc = [[LaurentScalar.zero(prec) for _ in range(n)] for _ in range(n)]

        def add(series, mat):
            for i in range(n):
                for j in range(n):
                    if not is_zero(mat[i][j]):
                        acc[i][j] = acc[i][j] + series * mat[i][j]

        if point != INFINITY:
            x = Fraction(point)
            for y, coeffs in self.finite.items():
                for d, mat in enumerate(coeffs, start=1):
                    # 1/(z-y)^d = 1/((x-y) + t)^d expanded at t = 0
                    add(LaurentScalar.t_power(-d) if y == x
                        else _geometric_expansion(x - y, d, prec), mat)
            for k, mat in enumerate(self.poly):
                # z^k = (x + t)^k
                add(_binomial_expansion(x, k, prec), mat)
            return LaurentMatrix(acc)
        # infinity: z = 1/w, dz = -w^-2 dw
        for y, coeffs in self.finite.items():
            for d, mat in enumerate(coeffs, start=1):
                # (z-y)^-d dz = -w^(d-2) (1-yw)^-d dw
                add(_geometric_expansion_inf(y, d, prec), mat)
        for k, mat in enumerate(self.poly):
            # z^k dz = -w^(-k-2) dw
            add(LaurentScalar.t_power(-k - 2, Fraction(-1)), mat)
        return LaurentMatrix(acc)

    def to_json(self):
        return {
            "finite": [{"point": str(pt),
                        "polar": [[[format_scalar(c) for c in row] for row in mat]
                                  for mat in coeffs]}
                       for pt, coeffs in sorted(self.finite.items(),
                                                key=lambda kv: _point_key(kv[0]))],
            "poly": [[[format_scalar(c) for c in row] for row in mat]
                     for mat in self.poly],
        }


def _geometric_expansion(c, d, prec):
    """(c + t)^(-d) as a series in t, c nonzero, to precision prec: the
    t^k coefficient is C(d+k-1, k) (-1)^k c^(-d-k)."""
    return LaurentScalar({k: (-1) ** k * math.comb(d + k - 1, k) / c ** (d + k)
                          for k in range(max(prec, 0))}, prec)


def _binomial_expansion(x, k, prec):
    """(x + t)^k to precision prec: the t^j coefficient is C(k, j) x^(k-j)."""
    return LaurentScalar({j: math.comb(k, j) * x ** (k - j) for j in range(min(k + 1, prec))},
                         prec)


def _geometric_expansion_inf(y, d, prec):
    """(z - y)^(-d) dz in the w = 1/z chart as a dw-coefficient,
    -w^(d-2) (1 - y w)^(-d), to precision prec: the w^(d-2+k)
    coefficient is -C(d+k-1, k) y^k."""
    return LaurentScalar({d - 2 + k: -math.comb(d + k - 1, k) * y ** k
                          for k in range(max(prec - d + 2, 0))}, prec)


def assemble_global(cfg):
    """The unique rational dz-matrix with the prescribed principal parts
    and no other poles.

    Raises ResidueNonzero (with the offending sum) when the residue
    theorem obstructs assembly, DuplicatePoints at construction time.
    """
    n = cfg.n
    total = moment_map(cfg)
    if any(not is_zero(c) for row in total for c in row):
        raise ResidueNonzero("residue sum does not vanish", total=total)
    finite = {}
    poly = []
    inf_entry = None
    for pp, _, _ in cfg.entries:
        if pp.point == INFINITY:
            inf_entry = pp
            continue
        finite[pp.point] = [[[x.coeff_or_zero(-d) for x in row] for row in pp.part.rows]
                            for d in range(1, -pp.polar_orders() + 1)]
    if inf_entry is not None:
        # w^(-d) dw terms, d >= 2, give polynomial coefficients -z^(d-2);
        # the w^(-1) coefficient is forced by the finite residues.
        depth = -inf_entry.polar_orders()
        for d in range(2, depth + 1):
            while len(poly) < d - 1:
                poly.append(kzeros(n, n))
            poly[d - 2] = [[-x.coeff_or_zero(-d) for x in row] for row in inf_entry.part.rows]
    return GlobalRationalMatrix(n, finite, poly)


def check_framing(g_const, conn, formal_type):
    """True iff the constant gauge g carries the connection onto the
    stratum induced by the formal type: depth and leading coset must
    agree in P^(-r)/P^(1-r)."""
    g = LaurentMatrix.from_scalar_matrix(g_const)
    moved = gauge_transform(g, conn.standardized())
    ctx = formal_type.torus.context()
    r = formal_type.depth
    try:
        d = filtration_degree(moved.matrix, ctx, stop_at=-r)
    except PrecisionError:
        return False
    if d is INF:
        return r == 0
    if max(0, -d) != r:
        return False
    s = contained_stratum(moved, ctx)
    induced = formal_type.induced_stratum()
    return s.graded_rep().pattern == induced.graded_rep().pattern


def coadjoint_fixes(p, a_nu, ctx, i):
    """Ad*(p) fixes the restriction of the functional <a_nu, .> to P^i,
    i.e. Ad(p)(a_nu) - a_nu lies in (P^i)^perp = P^(1-i)."""
    moved = p * a_nu * p.inverse() - a_nu
    return in_filtration(moved, ctx, 1 - i)


def in_toral_congruence(p, torus, ctx, i, j, nu=None):
    """Decide p in T^i P^j (i < j) by peeling graded components: at each
    level the image of p (of p - 1 above level 0) must be a Cartan
    pattern, whose toral realization is then divided off."""
    if nu is None:
        nu = OneForm.dt_over_t()
    one = LaurentMatrix.identity(ctx.n)
    q, lvl = p, i
    while lvl < j:
        x, d = q, 0
        if lvl:
            x = q - one
            try:
                d = filtration_degree(x, ctx, stop_at=j)
            except PrecisionError:
                return False
            if d is INF or d >= j:
                return True
            if d < lvl:
                return False
        pattern = pattern_to_matrix(ctx, graded_component(x, ctx, d).pattern, d)
        s_mat = tame_corestriction(pattern, torus, nu).realization()
        if not in_filtration(x - s_mat, ctx, d + 1):
            return False
        try:
            q = q * (s_mat if lvl == 0 else one + s_mat).inverse()
        except (PrecisionError, SingularGauge):
            return False
        lvl = d + 1
    return True


def orbit_dimensions(formal_type, truncation):
    """Dimension accounting for the extended orbits at a truncation
    level: each raw summand is reported so the cancellation of the
    truncation-dependent terms is visible.

    Requires depth r >= 1 and truncation >= r + 1; depth zero belongs
    to the regular-singular branch.
    """
    r = formal_type.depth
    e = formal_type.e
    m = formal_type.m
    n = formal_type.n
    if r < 1:
        raise UnsupportedDepth("depth zero: use regular_singular_orbit_dimensions")
    if truncation < r + 1:
        raise UnsupportedDepth("truncation must be at least r + 1")
    graded_p = n * n // e          # dim of each P^i/P^(i+1)
    graded_t = m                   # dim of each t^(i)/t^(i+1)
    dim_o = (r + 1) * (graded_p - graded_t)
    dim_o1 = (r - 1) * (graded_p - graded_t)
    dim_q = (n * n + n * n // e) // 2
    dim_u = (n * n - n * n // e) // 2
    ell = truncation
    dim_tstar_g = 2 * n * n * ell
    dim_p_mod = dim_q + n * n * (ell - 1)
    dim_p1_mod = dim_u + n * n * (ell - 1)
    dim_m = dim_tstar_g + dim_o - 2 * dim_p_mod
    dim_m_tilde = dim_tstar_g + dim_o1 - 2 * dim_p1_mod
    return {
        "dim_O": dim_o,
        "dim_O1": dim_o1,
        "dim_M": dim_m,
        "dim_M_tilde": dim_m_tilde,
        "raw": {
            "truncation": ell,
            "dim_TstarG_trunc": dim_tstar_g,
            "dim_P_mod_Gl": dim_p_mod,
            "dim_P1_mod_Gl": dim_p1_mod,
            "dim_Q": dim_q,
            "dim_U": dim_u,
            "graded_piece_P": graded_p,
            "graded_piece_T": graded_t,
        },
    }


def regular_singular_orbit_dimensions(formal_type):
    """Depth-zero branch: the non-resonant constant adjoint orbit of the
    residue (regular: distinct eigenvalues) and its framed extension."""
    if formal_type.depth != 0:
        raise UnsupportedDepth("this branch handles depth zero only")
    n = formal_type.n
    vals = [row[-1] for row in formal_type.coeffs]
    if len(set(map(sort_key, vals))) != len(vals):
        raise UnsupportedDepth("repeated residue eigenvalue")
    return {
        "dim_O": n * n - n,
        "dim_M": n * n - n,
        "dim_M_tilde": n * n + n,
    }
