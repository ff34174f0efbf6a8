"""Formal connections: gauge action, contained strata, slope,
splitting, and diagonalization to a formal type.

The slope engine looks for a fundamental stratum, which certifies the
slope (Bremer-Sage).  Each round reads the matrix once into a table of
entry orders and windows and scans the standard parahorics, one per
ordered set partition of the basis (the constant permutation gauges,
all of them for n <= 4): the filtration degree of a candidate and the
leading pattern of its stratum come from the table, and the stratum is
fundamental iff that pattern is not nilpotent.  The first fundamental
(or regular singular) candidate ends the search.
When there is none, a shear move (Moser 1960) triangularizes the
nilpotent leading term by a constant kernel-flag gauge and multiplies
the kernel coordinates by t, and the scan repeats.  The shear rounds
are not known to terminate: they give up after MAX_DESCENT_ROUNDS, and
do so for some connections of rank n >= 5 with slope r/e, e > 1.

Diagonalization takes one path at every depth, depth zero and rank one
included.  The regularity report of the fundamental stratum carries its
split, when there is one (at depth zero, the residue eigenbasis on the
maximal chain); split_connection clears the levels between the parts;
and each part, or the whole matrix when there is no split, is a pure
block, reduced in its level form by _pure_block_reduce.  A window too
short for the requested digits raises PrecisionError at any depth.
"""

import itertools
import math
from fractions import Fraction

from .errors import (FormalConnError, NotRegular, NotSplit, ParseError,
                     PrecisionError, SingularGauge)
from .formal_types import FormalType
from .linalg import kinverse, kmatmul, knullspace, rref
from .matrices import LaurentMatrix
from .parahoric import (GradedEndo, _certifying_window, fildeg_certified,
                        filtration_degree, graded_component, pattern_to_matrix,
                        standard_chain)
from .scalars import get_field, is_zero, scalar_inverse, sort_key
from .series import INF, LaurentScalar, OneForm
from .strata import (Stratum, infer_field, is_regular, pure_leading,
                     reduce_stratum)
from .torus import (ToralElement, TorusData, ad_level_solve, block_levels, gauge_levels,
                    graded_level_solve, levels_matrix, rescale_levels, unipotent_times)

MAX_DESCENT_ROUNDS = 64


class FormalConnection:
    """A formal connection nabla = d + [nabla]; stored as the matrix of
    nabla_tau for the chosen one-form nu (tau_nu is the vector field
    with iota_tau(nu) = 1)."""

    __slots__ = ("matrix", "nu")

    def __init__(self, tau_matrix, nu=None):
        if nu is None:
            nu = OneForm.dt_over_t()
        self.matrix = tau_matrix
        self.nu = nu

    @classmethod
    def from_dt_matrix(cls, m_dt, nu=None):
        """Build from the matrix of nabla against dt (nabla = d + M dt):
        [nabla_tau] = M / f for nu = f dt."""
        if nu is None:
            nu = OneForm.dt_over_t()
        return cls(m_dt * nu.f.inverse(), nu)

    @property
    def n(self):
        return self.matrix.n

    def dt_matrix(self):
        return self.matrix * self.nu.f

    def with_one_form(self, nu2):
        """Rescale to another one-form: [nabla_tau'] = (f/f') [nabla_tau]."""
        factor = self.nu.f * nu2.f.inverse()
        return FormalConnection(self.matrix * factor, nu2)

    def standardized(self):
        """The same connection against dt/t."""
        f = self.nu.f
        if f.order == -1 and len(f.coeffs) == 1 and f.coeff_or_zero(-1) == 1:
            return self
        return self.with_one_form(OneForm.dt_over_t())

    def tau_of_matrix(self, g):
        """Apply the derivation tau_nu = (1/f) d/dt entrywise to g."""
        deriv = LaurentMatrix([[e.derivative() for e in row] for row in g.rows])
        f = self.nu.f
        if len(f.coeffs) == 1:
            k = f.order
            c = f.coeffs[k]
            return deriv.shift(-k) * scalar_inverse(c)
        return deriv * f.inverse()

    def to_json(self, field=None):
        field_name = (field or infer_field(self.matrix)).name
        return {"schema_version": 1, "n": self.n, "field": field_name,
                "nu": self.nu.to_json(), "matrix": self.dt_matrix().to_json()}

    @classmethod
    def from_json(cls, data, field=None):
        if not isinstance(data, dict):
            raise ParseError("connection file must hold a JSON object")
        for key in ("n", "matrix"):
            if key not in data:
                raise ParseError("connection file lacks %r" % key)
        if field is None:
            field = get_field(data.get("field", "Q"))
        nu = OneForm.from_json(data["nu"], field) if data.get("nu") else OneForm.dt_over_t()
        m = LaurentMatrix.from_json(data["matrix"], field)
        if m.n != data["n"]:
            raise ParseError("matrix size disagrees with n")
        return cls.from_dt_matrix(m, nu)

    def __repr__(self):
        return "FormalConnection(n=%d, nu_order=%d)" % (self.n, self.nu.order)


def gauge_transform(g, conn):
    """g . [nabla_tau] = (g [nabla_tau] - tau g) g^-1."""
    try:
        g_inv = g.inverse()
    except SingularGauge:
        raise SingularGauge("gauge matrix is not invertible")
    return FormalConnection((g * conn.matrix - conn.tau_of_matrix(g)) * g_inv, conn.nu)


def contained_stratum(conn, ctx):
    """The stratum the connection contains relative to the given
    standard parahoric: depth r = max(-fildeg([nabla_tau]), 0) with
    [nabla_tau] itself as representative, against dt/t."""
    c = conn.standardized()
    d = filtration_degree(c.matrix, ctx)
    r = max(0, -d) if d is not INF else 0
    return Stratum(ctx, r, c.matrix, c.nu)


# -- slope -----------------------------------------------------------------


def _compositions(n):
    out = []
    for cuts in range(1 << (n - 1)):
        blocks = []
        size = 1
        for pos in range(n - 1):
            if cuts & (1 << pos):
                blocks.append(size)
                size = 1
            else:
                size += 1
        blocks.append(size)
        out.append(tuple(blocks))
    out.sort(key=lambda b: (len(b), b))
    return out


def _permutation_rows(perm):
    """The constant matrix P whose row u is e_perm[u]: P M P^-1 has
    entry (u, v) equal to M[perm[u]][perm[v]]."""
    n = len(perm)
    return LaurentMatrix([[LaurentScalar.one() if v == perm[u] else LaurentScalar.zero()
                           for v in range(n)] for u in range(n)])


def _order_table(matrix):
    """One read of the matrix: (nonzero, windows, leads) with nonzero the
    (i, j, order) of every entry with a known nonzero coefficient,
    windows the (i, j, prec) of every entry known only to a finite
    precision, and leads the leading coefficients by (i, j)."""
    nonzero, windows, leads = [], [], {}
    for i, row in enumerate(matrix.rows):
        for j, entry in enumerate(row):
            if entry.coeffs:
                o = entry.order
                nonzero.append((i, j, o))
                leads[i, j] = entry.coeffs[o]
            if entry.prec is not INF:
                windows.append((i, j, entry.prec))
    return nonzero, windows, leads


def _scan_standard(matrix, n, perms):
    """The first (permutation, composition) candidate, in scan order,
    whose contained stratum is fundamental or regular singular: (perm,
    ctx, r), with r = 0 for regular singular; None when there is none.

    Entry (u, v) of the permuted matrix is matrix[perm[u]][perm[v]], so
    a candidate only gives each original index i a phase, and its
    filtration degree is min e*ord[i][j] + phase(i) - phase(j) over the
    order table (undetermined, and skipped, when a window bound lies
    below it).  Candidates giving every index the same phase -- the
    same ordered set partition -- agree in degree, precision and
    verdict, so each is tried once.  The stratum is fundamental iff its
    leading pattern is not nilpotent; that pattern is read from the same
    table, and a window ending on one of its slots raises PrecisionError.
    """
    nonzero, windows, leads = _order_table(matrix)
    contexts = [standard_chain(blocks) for blocks in _compositions(n)]
    tried = set()
    for perm in perms:
        pos = [0] * n
        for u, i in enumerate(perm):
            pos[i] = u
        for ctx in contexts:
            e = ctx.period
            phase = tuple(ctx.phases[pos[i]] for i in range(n))
            if phase in tried:
                continue
            tried.add(phase)
            best = min((e * o + phase[i] - phase[j] for i, j, o in nonzero), default=INF)
            bound = min((e * p + phase[i] - phase[j] for i, j, p in windows), default=INF)
            if bound < best:
                continue
            if best == INF or best >= 0:
                return perm, ctx, 0
            r = -best
            if math.gcd(r, e) > 1:
                # The gcd reduction lands on the chain of the composition
                # that merges runs of gcd(r, e) blocks, with the same
                # degree and pattern; that candidate came earlier in the
                # scan and was not fundamental.
                continue
            for i, j, p in windows:
                if e * p + phase[i] - phase[j] == best:
                    raise PrecisionError("graded coefficient at t^%d unknown" % p,
                                         needed=p + 1)
            pat = [[0] * n for _ in range(n)]
            for i, j, o in nonzero:
                if e * o + phase[i] - phase[j] == best:
                    pat[pos[i]][pos[j]] = leads[i, j]
            if not GradedEndo(pat, best, ctx).is_nilpotent():
                return perm, ctx, r
    return None


def fundamental_stratum(conn):
    """A fundamental stratum contained in the connection.

    Returns (gauge, gauged_connection, stratum): the (gcd-reduced)
    stratum is contained in gauge . conn with respect to a standard
    chain, so its slope certifies the connection slope.  Regular
    singular input yields the depth-zero stratum on the maximal chain.

    Each round scans the standard parahorics over constant permutations
    (all of them for n <= 4, the identity above) and stops at the first
    fundamental or regular singular candidate.  When there is none, a
    shear move triangularizes the nilpotent leading term by a constant
    kernel-flag gauge and multiplies the kernel coordinates by t.  Both
    moves cost at most a constant derivative term.  Nothing guarantees
    that the rounds find a fundamental stratum: the search gives up with
    FormalConnError after MAX_DESCENT_ROUNDS, which happens for some
    n >= 5 connections of slope r/e with e > 1.
    """
    conn = conn.standardized()
    n = conn.n
    gauge = LaurentMatrix.identity(n)
    cur = conn
    perms = list(itertools.permutations(range(n))) if n <= 4 else [tuple(range(n))]
    for round_no in range(MAX_DESCENT_ROUNDS):
        found = _scan_standard(cur.matrix, n, perms)
        if found is not None:
            perm, ctx, r = found
            pm = _permutation_rows(perm)
            gauge = pm * gauge
            cur = gauge_transform(pm, cur)
            s = Stratum(ctx, r, cur.matrix, cur.nu)
            return gauge, cur, (s if r == 0 else reduce_stratum(s))
        h, moved = _moser_move(cur.matrix, 1 + round_no % max(n - 1, 1))
        gauge = h * gauge
        cur = FormalConnection(moved, cur.nu)
    raise FormalConnError("slope descent did not terminate")


def _kernel_flag_basis(pat, n):
    """Basis adapted to ker(pat) <= ker(pat^2) <= ... (pat nilpotent);
    pat becomes block strictly upper triangular in this basis."""
    basis = []
    power = [list(r) for r in pat]
    for _ in range(n):
        ker = knullspace(power)
        cand = basis + ker
        if not cand:
            return None
        mat_rows = [[cand[j][i] for j in range(len(cand))] for i in range(n)]
        _, pivots = rref(mat_rows)
        basis = [cand[p] for p in pivots]
        if len(basis) == n:
            return basis
        power = kmatmul(power, pat)
    return None


def _moser_move(matrix, kernel_power=1):
    """One shear move on the maximal chain of the matrix of nabla_tau
    against dt/t: bring the nilpotent leading coefficient into
    kernel-flag position by the constant basis C, then rescale the
    coordinates of ker(pattern^k) by t.

    Returns (h, moved): the gauge h = S C^-1 with S = diag(t^a), and
    h . matrix in closed form, S (C^-1 matrix C) S^-1 - diag(a), since
    C is constant and tau(S) S^-1 = diag(a).
    """
    n = matrix.n
    ctx = standard_chain((n,))
    d = filtration_degree(matrix, ctx)
    if d is INF:
        raise FormalConnError("shear move on the zero matrix")
    pat = graded_component(matrix, ctx, d).pattern
    basis = _kernel_flag_basis(pat, n)
    if basis is None:
        raise FormalConnError("leading coefficient has no kernel flag")
    c = [[basis[j][i] for j in range(n)] for i in range(n)]
    c_inv = kinverse(c)
    # kernel of pattern^k in the flag basis occupies the first coordinates
    power = [list(r) for r in pat]
    for _ in range(kernel_power - 1):
        power = kmatmul(power, pat)
    ker_dim = max(1, len(knullspace(power)))
    ker_dim = min(ker_dim, n - 1) if ker_dim == n else ker_dim
    a = [1 if u < ker_dim else 0 for u in range(n)]
    c_inv_mat = LaurentMatrix.from_scalar_matrix(c_inv)
    h = LaurentMatrix([[x.shift(a[u]) for x in row] for u, row in enumerate(c_inv_mat.rows)])
    inner = c_inv_mat * matrix * LaurentMatrix.from_scalar_matrix(c)
    moved = [[x.shift(a[u] - a[v]) for v, x in enumerate(row)]
             for u, row in enumerate(inner.rows)]
    for u in range(n):
        if a[u]:
            moved[u][u] = moved[u][u] - LaurentScalar.from_scalar(Fraction(a[u]))
    return h, LaurentMatrix(moved)


def slope(conn):
    """Katz slope: r/e_P of any contained fundamental stratum; zero for
    regular singular connections."""
    if conn.standardized().matrix.is_zero():
        return Fraction(0)
    _, _, s = fundamental_stratum(conn)
    return s.slope


# -- splitting ---------------------------------------------------------------


def split_connection(conn, ctx, r, slot_lists, digits=8):
    """Kill the off-diagonal blocks of a connection containing a stratum
    split along the given coordinate slots.

    Iterates the strongly-uniform graded solves, level by level; at
    depth zero (the residue eigenlines that diagonalize splits along)
    the graded derivative contributes the shift -m, and an unsolvable
    level raises NotSplit.  Returns (p, conn') with p a product of
    unipotent off-block gauges and conn' block diagonal to the requested
    depth: off-blocks have filtration degree >= 1 - r + digits.  Raises
    PrecisionError, with the window needed, when an off-block window
    ends before that.
    """
    conn = conn.standardized()
    n = conn.n
    part_of = {}
    for idx, slots in enumerate(slot_lists):
        for u in slots:
            part_of[u] = idx
    lead_pat = [[graded_component(conn.matrix, ctx, -r).pattern[u][v]
                 if part_of[u] == part_of[v] else Fraction(0)
                 for v in range(n)] for u in range(n)]
    lead_mat = pattern_to_matrix(ctx, lead_pat, -r)
    p_total = LaurentMatrix.identity(n)
    cur = conn
    target = 1 - r + digits
    for _ in range(digits + 2 * r + 4):
        off = _off_part(cur.matrix, part_of)
        try:
            d = filtration_degree(off, ctx, stop_at=target)
        except PrecisionError as exc:
            raise PrecisionError("splitting ran out of digits", needed=exc.needed,
                                 short_by=exc.short_by)
        if d is INF or d >= target:
            break
        # x solves ad(x)(lead) - m x = off on the off-diagonal slots (the
        # shift -m = -d is the graded derivative at depth zero), so the
        # gauge 1 - x removes the level.
        x = graded_level_solve(lead_mat, off, ctx, d, r,
                               keep=lambda u, v: part_of[u] != part_of[v],
                               shift=-d if r == 0 else 0)
        if x is None:
            raise NotSplit("resonant obstruction at level %d" % (d + r))
        g = LaurentMatrix.identity(n) - x
        cur = gauge_transform(g, cur)
        p_total = g * p_total
    else:
        raise PrecisionError("splitting did not reach the requested depth")
    return p_total, cur


def _off_part(mat, part_of):
    n = mat.n
    rows = [[mat.rows[u][v] if part_of[u] != part_of[v] else LaurentScalar.zero()
             for v in range(n)] for u in range(n)]
    return LaurentMatrix(rows)


# -- diagonalization ---------------------------------------------------------


class DiagonalizationResult:
    """Total gauge p, the toral representative, and the formal type;
    p . [nabla_tau] agrees with realization(A_rep) to the working depth."""

    __slots__ = ("gauge", "A_rep", "formal_type")

    def __init__(self, gauge, a_rep, formal_type):
        self.gauge = gauge
        self.A_rep = a_rep
        self.formal_type = formal_type

    def __repr__(self):
        return "DiagonalizationResult(%r)" % (self.formal_type,)


def diagonalize(conn, digits=8):
    """Gauge the connection into its Cartan form (Cartan coefficients in
    degrees -r..0 constitute the formal type), by the one path that
    every depth takes (see the module docstring).

    Raises NotRegular when no regular stratum is contained,
    NonsplitField when the ground field lacks needed roots and
    PrecisionError when a window is too short for the requested digits.
    """
    conn = conn.standardized()
    field = infer_field(conn.matrix)
    gauge, cur, strat = fundamental_stratum(conn)
    r = strat.r
    work_prec = digits + r + 4
    if cur.matrix.precision() is INF or cur.matrix.precision() > work_prec:
        cur = FormalConnection(cur.matrix.truncate(work_prec), cur.nu)
        strat = Stratum(strat.ctx, strat.r, cur.matrix, cur.nu)
    report = is_regular(strat, field)
    if not report:
        raise NotRegular("connection is not regular: %s" % report.reason)
    parts = [(range(cur.n), strat.ctx)]
    if report.parts:
        g_inv = report.gauge.inverse()
        cur = gauge_transform(g_inv, cur)
        gauge = g_inv * gauge
        p_split, cur = split_connection(cur, strat.ctx, r,
                                        [part.slots for part in report.parts],
                                        digits=digits + r)
        gauge = p_split * gauge
        parts = [(part.slots, part.stratum.ctx) for part in report.parts]
    # each part is a pure block of size e on its own chain, reduced
    # where the split left it
    blocks = []
    for slots, ctx in parts:
        block = LaurentMatrix([[cur.matrix.rows[u][v] for v in slots] for u in slots])
        p, q = _pure_block_reduce(FormalConnection(block, cur.nu), ctx, r, field, digits)
        blocks.append((slots, p, q, [q.get(d, field.zero()) for d in range(-r, 1)]))
    return _assemble_blocks(cur.n, gauge, blocks, r, report.e, field)


def _assemble_blocks(n, gauge, blocks, r, e, field):
    """Put the reduced blocks (slots, gauge, q, row) in sort order of
    their leading coefficients."""
    blocks = sorted(blocks, key=lambda blk: sort_key(blk[3][0]))
    torus = TorusData(e, len(blocks))
    perm = [None] * n
    block_rows = [[LaurentScalar.zero() for _ in range(n)] for _ in range(n)]
    for j, (slots, p, _, _) in enumerate(blocks):
        for a, u in enumerate(slots):
            perm[j * e + a] = u
            for b, v in enumerate(slots):
                block_rows[u][v] = p.rows[a][b]
    gauge = LaurentMatrix([block_rows[u] for u in perm]) * gauge
    a_rep = ToralElement(torus, [q for _, _, q, _ in blocks])
    ft = FormalType(torus, r, [row for _, _, _, row in blocks], field)
    return DiagonalizationResult(gauge, a_rep, ft)


def _pure_block_reduce(conn, ctx, r, field, digits):
    """Reduce a pure block on the complete chain to q(varpi^(-1)),
    working in its level form (see :mod:`formalconn.torus`).

    The block is read once into levels {d: [c_0..c_(e-1)]}, keeping the
    levels through ``digits``, all that the reduction reads.  A
    normalizer, a constant diagonal, rescales the slots so that the
    leading level is alpha varpi^(-r).  Each level v of the remainder
    A - q, from the bottom through ``digits``, is then cleared: its mean
    c is its Cartan part; for v <= 0 it is absorbed into q, for v > 0
    the gauge 1 + (e c / v) varpi^v cancels it through its derivative
    term; what is left solves the graded ad-equation, a cyclic
    difference system, and the gauge 1 + varpi^(v+r) diag(xi) removes
    it.  Gauges act by the level recurrence of ``torus.gauge_levels``,
    without an inverse, and the accumulated gauge P <- (1 + X) P stays
    exact.

    Raises PrecisionError when the block's window ends before level
    digits + 1, which the reduction consumes.  Returns (gauge, dict of
    q-coefficients in degrees -r..0).
    """
    conn = conn.standardized()
    block = conn.matrix
    e = ctx.period
    assert e == block.n and ctx.phases == tuple(range(e - 1, -1, -1))
    pat = graded_component(block, ctx, -r).pattern
    # rank one is all Cartan: its leading coefficient may vanish (the one
    # nilpotent summand a regular split torus allows)
    head = (pat[0], pat[0][0]) if e == 1 else pure_leading(pat, field)
    if head is None:
        raise NotRegular("pure block leading term is not a varpi multiple")
    xs, alpha = head
    _, window = fildeg_certified(block, ctx)
    if window < digits + 1:
        needed, short_by = _certifying_window(block, ctx, digits + 1)
        raise PrecisionError("pure block known below level %d, reduction needs %d"
                             % (window, digits + 1), needed=needed, short_by=short_by)
    below = digits + 1
    cur = block_levels(block, below)
    gauge = {0: [Fraction(1)] * e}
    if any(x != alpha for x in xs):
        h = _pure_normalizer(e, r, xs, alpha, field)
        cur = rescale_levels(cur, h)
        gauge = {0: h}
    q = {-r: alpha} if not is_zero(alpha) else {}
    for v in range(-r, digits + 1):
        rem = _level_remainder(cur, q, v, e)
        if not any(rem):
            continue
        c = sum(rem) * Fraction(1, e)
        if not is_zero(c):
            if v <= 0:
                q[v] = q.get(v, field.zero()) + c
            else:
                beta = [c * Fraction(e, v)] * e
                cur = gauge_levels(cur, v, beta, below)
                gauge = unipotent_times(v, beta, gauge)
            rem = _level_remainder(cur, q, v, e)
            if not any(rem):
                continue
        xi = ad_level_solve(alpha, r, rem, v + r)
        cur = gauge_levels(cur, v + r, xi, below)
        gauge = unipotent_times(v + r, xi, gauge)
    return levels_matrix(gauge, e), q


def _level_remainder(levels, q, v, e):
    """Level v of A - q(varpi), as a vector."""
    vec = levels.get(v, [Fraction(0)] * e)
    return [c - q[v] for c in vec] if v in q else vec


def _pure_normalizer(n, r, xs, alpha, field):
    """Constant diagonal p with Ad(p)(x varpi^(-r)) = alpha varpi^(-r):
    solve p_u = alpha p_(u-r) / x_u around the r-cycle (gcd(r,n)=1).
    Returns the diagonal entries."""
    diag = [None] * n
    diag[0] = field.one()
    u = 0
    for _ in range(n - 1):
        nxt = (u + r) % n
        val = alpha * diag[u]
        diag[nxt] = val * scalar_inverse(xs[nxt])
        u = nxt
    return diag
