"""Formal connections: gauge action, contained strata, slope,
splitting, and diagonalization to a formal type.

The slope engine follows the proof of Bremer-Sage that every connection
contains a fundamental stratum, whose r/e is the slope.  Each round
reads the matrix once into a table of entry orders and windows and
moves to the best lattice chain of its frame: the least cycle mean
a/b of the entry orders (Karp) is the largest filtration degree -r/e
that a chain of monomial lattices in the current basis gives the
matrix, and a shear and a relabelling of the basis put the chain that
reaches it in standard form, with period b <= n and gcd(a, b) = 1.  The stratum there is fundamental iff its leading term
is not nilpotent on gr.  Otherwise a constant basis change inside the
phase classes, adapted to the kernel flag of the leading term, lowers
r/e strictly in the next round; r/e lies in a finite set of fractions
with denominator at most n, so the descent terminates.

Diagonalization takes one path at every depth, depth zero and rank one
included.  The regularity report of the fundamental stratum carries its
split, when there is one: a constant basis change in the Levi of the
parahoric, read off the leading term (at depth zero, the residue
eigenbasis on the maximal chain), with its inverse and the conjugated
matrix, so the split basis is applied with no further inverse and no
tau(g) term; split_connection clears the off-block levels between the
parts above the leading one in the level form of the chain; and each
part, or the whole matrix when there is no split, is a pure block,
reduced in its level form by _pure_block_reduce.  A window too short
for the requested digits raises PrecisionError at any depth.
"""

import itertools
from fractions import Fraction

from .errors import NotRegular, NotSplit, ParseError, PrecisionError, SingularGauge
from .formal_types import FormalType
from .linalg import kernel_flag_basis, kinverse
from .matrices import LaurentMatrix, constant_product
from .parahoric import (_certifying_window, fildeg_certified, filtration_degree,
                        graded_component, standard_chain)
from .scalars import get_field, is_zero, scalar_inverse, sort_key
from .series import INF, LaurentScalar, OneForm, default_precision
from .strata import Stratum, infer_field, is_regular, pure_leading
from .torus import (ToralElement, TorusData, ad_level_solve, block_levels, gauge_levels,
                    graded_pattern_solve, level_pattern, levels_matrix, pattern_level,
                    rescale_levels, unipotent_times)


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


def _order_table(matrix):
    """(u, v, cost, known) for every entry that is not exactly zero: a
    known entry costs the order of its first coefficient, an entry zero
    to its window costs the window, the first order where a coefficient
    could hide."""
    return [(u, v, x.order, True) if x.coeffs else (u, v, x.prec, False)
            for u, row in enumerate(matrix.rows) for v, x in enumerate(row)
            if x.coeffs or x.prec is not INF]


def _min_cycle_mean(n, edges):
    """The least mean cost of a cycle of the order graph (Karp 1978), or
    None without a cycle.  By LP duality it is the largest value, over
    real points x, of min ord(A_uv) + x_u - x_v: the filtration degree
    over e of the chain whose phases are e x mod e."""
    walks = [[0] * n]
    for _ in range(n):
        prev, cur = walks[-1], [None] * n
        for u, v, cost, _ in edges:
            if prev[u] is not None and (cur[v] is None or prev[u] + cost < cur[v]):
                cur[v] = prev[u] + cost
        walks.append(cur)
    return min((max(Fraction(walks[n][v] - walks[k][v], n - k)
                    for k in range(n) if walks[k][v] is not None)
                for v in range(n) if walks[n][v] is not None), default=None)


def _chain_potentials(n, edges, a, b, strict=True):
    """The largest integer potentials x <= b - 1 with b cost + x_u - x_v
    >= a on every known edge and > a on every window edge (>= a unless
    strict): at the point x/b the matrix has filtration degree a/b over
    e = b and a known leading term.  None when there are none
    (Bellman-Ford on the difference constraints)."""
    cons = [(u, v, b * cost - a - (0 if known else strict)) for u, v, cost, known in edges]
    x = [b - 1] * n
    for _ in range(n + 1):
        changed = False
        for u, v, w in cons:
            if x[u] + w < x[v]:
                x[v] = x[u] + w
                changed = True
        if not changed:
            return x
    return None


def _round_chain(n, edges):
    """(a, b, x, loose) for a round on the order table: -r/e = a/b, the
    least cycle mean when it is negative (else 0/1), and the chain
    potentials x there, None when a window reaches the leading term.
    loose marks a depth-zero chain found only with non-strict window
    constraints."""
    mu = _min_cycle_mean(n, edges)
    a, b = (mu.numerator, mu.denominator) if mu is not None and mu < 0 else (0, 1)
    x = _chain_potentials(n, edges, a, b)
    loose = x is None and a == 0
    if loose:
        x = _chain_potentials(n, edges, 0, 1, strict=False)
    return a, b, x, loose


def _window_shortfall(n, edges):
    """The least s >= 1 such that the round finds a chain once every
    window of the order table is s larger.  A cycle of length L through
    a window edge then has b times its cost sum at least b (L c + s),
    with c the least cost, so s = n (max(0, -c) + 1) always suffices."""
    top = n * (max(0, -min(cost for _, _, cost, _ in edges)) + 1)
    for s in range(1, top + 1):
        moved = [(u, v, cost if known else cost + s, known) for u, v, cost, known in edges]
        if _round_chain(n, moved)[2] is not None:
            return s
    raise AssertionError("no window increase up to %d finds a chain" % top)


def _reframe(matrix, gauge, perm, shift):
    """Gauge by the shear S = diag(t^shift), then relabel the basis u ->
    perm: entry (i, j) becomes t^(s_u - s_v) M[u][v] - s_u [u = v] with
    (u, v) = (perm[i], perm[j]), as tau(S) S^-1 = diag(shift).  Returns
    the moved matrix and gauge."""
    rows = []
    for i, u in enumerate(perm):
        row = [matrix.rows[u][v].shift(shift[u] - shift[v]) for v in perm]
        if shift[u]:
            row[i] = row[i] - LaurentScalar.from_scalar(Fraction(shift[u]))
        rows.append(row)
    return (LaurentMatrix(rows),
            LaurentMatrix([[x.shift(shift[u]) for x in gauge.rows[u]] for u in perm]))


def _flag_levi(pat, blocks):
    """(g, g^-1) for the constant g whose columns are a basis adapted to
    the kernel flag of the nilpotent graded pattern, each vector at a
    slot of its own phase class: g stabilizes the chain, and g^-1 pat g
    has a support without cycles.  Both are ground-field matrices."""
    n = len(pat)
    starts = list(itertools.accumulate(blocks, initial=0))
    free = [iter(range(starts[k], starts[k + 1])) for k in range(len(blocks))]
    cols = [None] * n
    for vec in kernel_flag_basis(pat):
        u = next(i for i, c in enumerate(vec) if not is_zero(c))
        cols[next(free[next(k for k in range(len(blocks)) if u < starts[k + 1])])] = vec
    g = [[cols[j][i] for j in range(n)] for i in range(n)]
    return g, kinverse(g)


def fundamental_stratum(conn):
    """A fundamental stratum contained in the connection.

    Returns (gauge, gauged_connection, stratum): the stratum, with
    gcd(r, e) = 1 on a grouped standard chain, is contained in
    gauge . conn, so its slope r/e certifies the connection slope;
    regular singular input yields the depth-zero stratum on the maximal
    chain.

    This is the descent of Bremer-Sage's proof that a fundamental
    stratum exists.  Each round moves to the chain of monomial lattices in the
    current basis with the least r/e: -r/e is the least cycle mean a/b
    of the entry orders, the difference constraints of degree a/b give
    the chain (phases mod b, a shear t^s for the rest), and a critical
    cycle, tight there, meets every phase class mod b, so e = b <= n.
    A shear and a relabelling of the basis make the chain standard.  If
    the leading term beta is not nilpotent on gr, or mu >= 0, the
    descent stops.  Otherwise a constant gauge inside the phase classes,
    adapted to the kernel flag of beta, leaves beta with an acyclic
    support.

    Termination: that gauge keeps every entry's degree at the chain, and
    only beta lies at degree a; every cycle now has an edge at degree
    a + 1 or more, so the next least cycle mean is strictly larger.  All
    of them lie in {a/b : mu_0 <= a/b < 0, b <= n}, so at most
    sum_(b <= n) floor(-mu_0 b) rounds precede the last; the loop
    asserts that bound.

    Precision: an entry zero to its window counts as a coefficient at
    the window, and the chain keeps every window above the leading term;
    PrecisionError when there is none, whose ``short_by`` is the least
    increase of every window that gives the round a chain (windows move
    with the input's one for one, as gauges shift them uniformly).  At
    depth zero a window may reach the residue if a known entry still
    certifies the filtration degree.
    """
    conn = conn.standardized()
    n = conn.n
    matrix, gauge = conn.matrix, LaurentMatrix.identity(n)
    depths = []
    while True:
        edges = _order_table(matrix)
        a, b, x, loose = _round_chain(n, edges)
        if not depths:
            bound = 1 + sum(-a * k // b for k in range(1, n + 1))
        assert not depths or depths[-1] < Fraction(a, b), "descent round did not raise r/e"
        depths.append(Fraction(a, b))
        assert len(depths) <= bound, "descent exceeded its round bound %d" % bound
        if x is None:
            raise PrecisionError("a window reaches the leading term at degree %d/%d" % (a, b),
                                 short_by=_window_shortfall(n, edges))
        phases = [xu % b for xu in x]
        shift = [xu // b for xu in x]
        perm = sorted(range(n), key=lambda u: (-phases[u], u))
        if any(shift) or perm != list(range(n)):
            matrix, gauge = _reframe(matrix, gauge, perm, shift)
        blocks = [phases.count(p) for p in range(b - 1, -1, -1)]
        ctx = standard_chain(blocks)
        cur = FormalConnection(matrix, conn.nu)
        if a == 0:
            if loose:
                # in gl_n(o) with a window on the residue: raises unless a
                # known entry certifies the filtration degree
                filtration_degree(matrix, ctx)
            return gauge, cur, Stratum(ctx, 0, matrix, conn.nu)
        beta = graded_component(matrix, ctx, a)
        if not beta.is_nilpotent():
            return gauge, cur, Stratum(ctx, -a, matrix, conn.nu)
        g, g_inv = _flag_levi(beta.pattern, blocks)
        matrix, gauge = constant_product(g_inv, matrix, g), constant_product(g_inv, gauge)


def slope(conn):
    """Katz slope: r/e_P of the contained fundamental stratum that
    fundamental_stratum finds; zero for regular singular connections."""
    _, _, s = fundamental_stratum(conn)
    return s.slope


# -- splitting ---------------------------------------------------------------


def split_connection(conn, ctx, r, slot_lists, digits=8):
    """Kill the off-diagonal blocks of a connection containing a stratum
    split along the given coordinate slots of a uniform chain.

    The matrix is read once into its level form on the chain (see
    :mod:`formalconn.torus`), as far as it is known; an exact matrix to
    the session precision (default_precision() t-digits).  The off-block
    part of each level d below the target 1 - r + digits, from 1 - r
    up, is cleared by the gauge 1 - X with X at level d + r solving
    ad(X)(lead) - m X = off-block part (torus.graded_pattern_solve, the
    solver of graded_level_solve; the shift -m = -d is the graded
    derivative at depth zero), and an unsolvable level raises NotSplit.
    The gauge acts by the level recurrence B = A - XA + tau X,
    A' = B + A'X of ``torus.gauge_levels``, with no inverse; it moves
    only the levels from d on, so one pass in order clears them all.

    Returns (p, conn') with p the exact product of the gauges 1 - X and
    conn' block diagonal to the requested depth: off-blocks have
    filtration degree >= 1 - r + digits, and conn' is known as far as
    its level form was read.  Raises PrecisionError, with the window
    needed, when the input is not known below the target level, and
    NotSplit when its leading term is not block diagonal.
    """
    conn = conn.standardized()
    n = conn.n
    part_of = {}
    for idx, slots in enumerate(slot_lists):
        for u in slots:
            part_of[u] = idx
    target = 1 - r + digits
    _, window = fildeg_certified(conn.matrix, ctx)
    if window < target:
        needed, short_by = _certifying_window(conn.matrix, ctx, target)
        raise PrecisionError("splitting needs the matrix below level %d, known below %d"
                             % (target, window), needed=needed, short_by=short_by)
    below = min(window, max(target, ctx.period * default_precision()))
    lead = graded_component(conn.matrix, ctx, -r).pattern
    if any(not is_zero(c) for u, row in enumerate(lead) for v, c in enumerate(row)
           if part_of[u] != part_of[v]):
        raise NotSplit("the leading term is not block diagonal along the slots")
    cur = block_levels(conn.matrix, below, ctx)
    gauge = {0: pattern_level([[Fraction(int(u == v)) for v in range(n)] for u in range(n)],
                              0, ctx)}
    for d in range(min(cur, default=target), target):
        if d not in cur:
            continue
        off = [[c if part_of[u] != part_of[v] else Fraction(0) for v, c in enumerate(row)]
               for u, row in enumerate(level_pattern(cur[d], d, ctx))]
        if all(is_zero(c) for row in off for c in row):
            continue
        x = graded_pattern_solve(lead, off, ctx, d, r,
                                 keep=lambda u, v: part_of[u] != part_of[v],
                                 shift=-d if r == 0 else 0)
        if x is None:
            raise NotSplit("resonant obstruction at level %d" % (d + r))
        neg_x = [-c for c in pattern_level(x, d + r, ctx)]
        cur = gauge_levels(cur, d + r, neg_x, below, ctx)
        gauge = unipotent_times(d + r, neg_x, gauge, ctx=ctx)
    return (levels_matrix(gauge, n, ctx),
            FormalConnection(levels_matrix(cur, n, ctx, below), conn.nu))


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
    p_split = LaurentMatrix.identity(cur.n)
    if report.parts:
        # the split's g is constant, so g^-1 . nabla is the report's
        # g^-1 A g, cut to the t-window that certifies level digits + 1,
        # all that the split and the pure blocks read
        e = strat.ctx.period
        cur = FormalConnection(report.conjugate.truncate(-(-(digits + e) // e)), cur.nu)
        gauge = report.gauge_inverse * gauge
        p_split, cur = split_connection(cur, strat.ctx, r,
                                        [part.slots for part in report.parts],
                                        digits=digits + r)
        parts = [(part.slots, part.stratum.ctx) for part in report.parts]
    # each part is a pure block of size e on its own chain, reduced
    # where the split left it
    blocks = []
    for slots, ctx in parts:
        block = LaurentMatrix([[cur.matrix.rows[u][v] for v in slots] for u in slots])
        p, q = _pure_block_reduce(FormalConnection(block, cur.nu), ctx, r, field, digits)
        blocks.append((slots, p, q, [q.get(d, field.zero()) for d in range(-r, 1)]))
    return _assemble_blocks(cur.n, gauge, p_split, blocks, r, report.e, field, digits)


def _assemble_blocks(n, gauge, p_split, blocks, r, e, field, digits):
    """Put the reduced blocks (slots, gauge, q, row) in sort order of
    their leading coefficients; the total gauge is the blocks' gauges
    times p_split times ``gauge``.  The first two are exact products of
    one unipotent per level, a unit of P whose levels from digits + 1 + r
    on move the result only beyond level digits: it is kept below
    t^ceil((digits + r + e) / e), exactly."""
    blocks = sorted(blocks, key=lambda blk: sort_key(blk[3][0]))
    torus = TorusData(e, len(blocks))
    perm = [None] * n
    block_rows = [[LaurentScalar.zero() for _ in range(n)] for _ in range(n)]
    for j, (slots, p, _, _) in enumerate(blocks):
        for a, u in enumerate(slots):
            perm[j * e + a] = u
            for b, v in enumerate(slots):
                block_rows[u][v] = p.rows[a][b]
    work = LaurentMatrix([block_rows[u] for u in perm]) * p_split
    w = -(-(digits + r + e) // e)
    gauge = LaurentMatrix([[LaurentScalar(x.truncate(w).coeffs) for x in row]
                           for row in work.rows]) * gauge
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
