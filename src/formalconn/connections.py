"""Formal connections: gauge action, contained strata, slope,
splitting, and diagonalization to a formal type.

The slope engine follows the proof of Bremer-Sage that every connection
contains a fundamental stratum, whose r/e is the slope.  The descent
reads the matrix once into integer form; each round reads a table of
entry orders and windows off the integer numerators and moves to the
best lattice chain of its frame:
the least cycle mean a/b of the entry orders (Karp) is the largest
filtration degree -r/e that a chain of monomial lattices in the current
basis gives the matrix, and a shear and a relabelling of the basis put
the chain that reaches it in standard form, with period b <= n and
gcd(a, b) = 1.  The stratum there is fundamental iff its leading term
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
tau(g) term.  One level loop, _pure_block_reduce, then works in the
level form of the chain, on integer numerators over one denominator
per level, read from the matrix once (the lead is level -r) and
written out once.  Each level above the leading one loses the Cartan
part of every part, into q or by a derivative gauge, and the rest,
between the parts and inside them, by one graded solve.  The parts are
the split's, or the whole matrix when there is no split, each with the
leading coefficient that is_regular reports.  The loop keeps the
product Q of its gauges and the levels of the gauged matrix that stay
nonzero, and forms each level once, when it reaches it, from A'Q = QA
- tau(Q) (torus.gauged_level), instead of gauging every level above at
each step.  split_connection, which clears only the off-block levels,
stays for callers that want a split connection; it too takes its lead
from its levels, and returns every level of its window, so it gauges
them all at each step (torus.gauge_levels).  A window too short for
the requested digits raises PrecisionError at any depth.
"""

import itertools
import math
from fractions import Fraction
from functools import reduce

from .errors import (NotInFiltration, NotRegular, NotSplit, ParseError, PrecisionError,
                     SingularGauge)
from .formal_types import FormalType
from .linalg import integer_ring, kernel_flag_basis, over_one_den, solve_form
from .matrices import IntMatrix, LaurentMatrix
from .parahoric import certifying_window, fildeg_certified, filtration_degree, standard_chain
from .scalars import get_field, is_zero, scalar_inverse, sort_key
from .series import INF, LaurentScalar, OneForm, default_precision
from .strata import Stratum, infer_field, is_regular
from .torus import (ToralElement, TorusData, block_levels, gauge_levels, gauge_step,
                    gauged_level, graded_solver, level_entries, level_product, level_sum,
                    levels_matrix, neg_tau, negated, reduced)


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


def _order_table(mat):
    """(u, v, cost, known) for every entry of the integer form that is
    not exactly zero: a known entry costs the order of its first
    coefficient, an entry zero to its window costs the window, the first
    order where a coefficient could hide."""
    n = mat.n
    out = []
    for idx, (nums, prec) in enumerate(zip(mat.forms, mat.precs)):
        if nums:
            out.append((idx // n, idx % n, min(nums), True))
        elif prec is not INF:
            out.append((idx // n, idx % n, prec, False))
    return out


def _min_cycle_mean(n, edges):
    """The least mean cost of a cycle of the order graph (Karp 1978), or
    None without a cycle.  By LP duality it is the largest value, over
    real points x, of min ord(A_uv) + x_u - x_v: the filtration degree
    over e of the chain whose phases are e x mod e.  The candidate means
    (W_n - W_k) / (n - k) are compared as multiples of 1 / lcm(1..n)."""
    walks = [[0] * n]
    for _ in range(n):
        prev, cur = walks[-1], [None] * n
        for u, v, cost, _ in edges:
            if prev[u] is not None and (cur[v] is None or prev[u] + cost < cur[v]):
                cur[v] = prev[u] + cost
        walks.append(cur)
    scale = math.lcm(*range(1, n + 1))
    mu = min((max((walks[n][v] - walks[k][v]) * (scale // (n - k))
                  for k in range(n) if walks[k][v] is not None)
              for v in range(n) if walks[n][v] is not None), default=None)
    return None if mu is None else Fraction(mu, scale)


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


def _sheared(mat, perm, shift):
    """Gauge the integer form by the shear S = diag(t^shift), then
    relabel the basis u -> perm: entry (i, j) becomes t^(s_u - s_v)
    M[u][v] - s_u [u = v] with (u, v) = (perm[i], perm[j]), as tau(S)
    S^-1 = diag(shift).  Shifts move exponents and windows; the s_u term
    enters the t^0 coefficient only where the entry's window lies above
    t^0."""
    n, den, ring = mat.n, mat.den, mat.ring
    forms, precs = [], []
    for u in perm:
        for v in perm:
            nums, prec = mat.forms[u * n + v], mat.precs[u * n + v]
            if u == v and shift[u] and prec > 0:
                nums = dict(nums)
                c = ring.add(nums.pop(0, ring.const(0)), ring.const(-shift[u] * den))
                if c:
                    nums[0] = c
            elif shift[u] != shift[v]:
                nums, prec = _shifted(nums, prec, shift[u] - shift[v])
            forms.append(nums)
            precs.append(prec)
    return IntMatrix(n, den, ring, forms, precs)


def _sheared_gauge(gauge, perm, shift):
    """The gauge S G relabelled as _sheared relabels the matrix: row i
    becomes t^(s_u) times row u = perm[i]."""
    n = gauge.n
    forms, precs = [], []
    for u in perm:
        for v in range(n):
            nums, prec = gauge.forms[u * n + v], gauge.precs[u * n + v]
            if shift[u]:
                nums, prec = _shifted(nums, prec, shift[u])
            forms.append(nums)
            precs.append(prec)
    return IntMatrix(n, gauge.den, gauge.ring, forms, precs)


def _shifted(nums, prec, d):
    """An entry's numerators and window times t^d."""
    return {k + d: x for k, x in nums.items()}, prec if prec is INF else prec + d


def _graded_pattern(mat, ctx, a):
    """The graded pattern of the integer form at degree a on the chain
    ctx, as numerators over mat.den of what graded_component gives:
    NotInFiltration when a known coefficient lies below P^a,
    PrecisionError when a pattern slot t^o lies beyond its entry's
    window."""
    n, e, phases = mat.n, ctx.period, ctx.phases
    for idx, nums in enumerate(mat.forms):
        if nums and e * min(nums) + phases[idx // n] - phases[idx % n] < a:
            raise NotInFiltration("matrix does not lie in P^%d" % a)
    zero = mat.ring.const(0)
    pat = [[zero] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            level = a + phases[v] - phases[u]
            if level % e == 0:
                o = level // e
                if o >= mat.precs[u * n + v]:
                    raise PrecisionError("graded coefficient at t^%d unknown" % o, needed=o + 1)
                pat[u][v] = mat.forms[u * n + v].get(o, zero)
    return pat


def _flag_levi(ring, pat, blocks):
    """(g^-1, g), each as (den, integer rows), for the constant g whose
    columns are a basis adapted to the kernel flag of the graded
    pattern, each vector 1 at its last nonzero coordinate and at a slot
    of its own phase class: g stabilizes the chain, and g^-1 pat g has a
    support without cycles.  g = g_int / den, and with (den_inv, right)
    = g_int^-1, g^-1 = den right / den_inv cancelled by gcd(den,
    den_inv).  None when the pattern is not nilpotent."""
    basis = kernel_flag_basis(ring, pat)
    if basis is None:
        return None
    n = len(pat)
    starts = list(itertools.accumulate(blocks, initial=0))
    free = [iter(range(starts[k], starts[k + 1])) for k in range(len(blocks))]
    cols = [None] * n
    for vec in basis:
        u = next(i for i, c in enumerate(vec) if c)
        cols[next(free[next(k for k in range(len(blocks)) if u < starts[k + 1])])] = vec
    den, g_t = over_one_den(ring, [(vec, next(x for x in reversed(vec) if x)) for vec in cols])
    g = [list(row) for row in zip(*g_t)]
    _, den_inv, right, _ = solve_form(ring, g, n)
    c = math.gcd(den, den_inv)
    return (den_inv // c, [[ring.scale(den // c, x) for x in row] for row in right]), (den, g)


def _in_filtration(mat, ctx, a):
    """Whether the integer form is certified to lie in P^a on ctx, by the
    rule of fildeg_certified: each least exponent, or else window."""
    n, e, phases = mat.n, ctx.period, ctx.phases
    return all(e * min(nums, default=prec) + phases[i // n] - phases[i % n] >= a
               for i, (nums, prec) in enumerate(zip(mat.forms, mat.precs)))


def _descent(conn):
    """The rounds of fundamental_stratum: (mat, moves, a, ctx, loose) of
    the last, with the moves in order, each a function and the arguments
    that apply it to a gauge."""
    n = conn.n
    mat = IntMatrix.read(conn.matrix)
    moves = []
    depths = []
    while True:
        edges = _order_table(mat)
        a, b, x, loose = _round_chain(n, edges)
        if not depths:
            bound = 1 + sum(-a * k // b for k in range(1, n + 1))
        assert not depths or depths[-1][0] * b < a * depths[-1][1], \
            "descent round did not raise r/e"
        depths.append((a, b))
        assert len(depths) <= bound, "descent exceeded its round bound %d" % bound
        if x is None:
            raise PrecisionError("a window reaches the leading term at degree %d/%d" % (a, b),
                                 short_by=_window_shortfall(n, edges))
        phases = [xu % b for xu in x]
        shift = [xu // b for xu in x]
        perm = sorted(range(n), key=lambda u: (-phases[u], u))
        if any(shift) or perm != list(range(n)):
            mat = _sheared(mat, perm, shift)
            moves.append((_sheared_gauge, perm, shift))
        blocks = [phases.count(p) for p in range(b - 1, -1, -1)]
        ctx = standard_chain(blocks)
        levi = _flag_levi(mat.ring, _graded_pattern(mat, ctx, a), blocks) if a else None
        if levi is None:
            return mat, moves, a, ctx, loose
        mat = mat.times_constants(*levi)
        moves.append((IntMatrix.times_constants, levi[0]))


def _stratum(conn, mat, moves, a, ctx, loose):
    """The written matrix of the descent's last round and its stratum."""
    matrix = mat.write() if moves else conn.matrix
    if loose:
        # in gl_n(o) with a window on the residue: raises unless a
        # known entry certifies the filtration degree
        filtration_degree(matrix, ctx)
    return matrix, Stratum(ctx, -a, matrix, conn.nu)


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

    Arithmetic: every round works on the integer form of the matrix
    (matrices.IntMatrix): the order table and the graded pattern are
    read off its numerators, shears move exponents and windows, and the
    kernel flag (linalg.kernel_flag_basis, which decides nilpotency) has
    integer columns g_int = den g.  With g_int^-1 = right / den_inv from
    one solve_form, g^-1 M g = right M g_int / den_inv, where den
    cancels (it divides den_inv in practice; gcd(den, den_inv) always
    does), and IntMatrix.times_constants ends in one content gcd.  The
    gauge replays the recorded moves on the identity, in the same order;
    the matrix and the gauge are written once, on return.
    """
    conn = conn.standardized()
    mat, moves, a, ctx, loose = _descent(conn)
    matrix, stratum = _stratum(conn, mat, moves, a, ctx, loose)
    gauge = IntMatrix.identity(conn.n, mat.ring)
    for move, *args in moves:
        gauge = move(gauge, *args)
    return gauge.write(), FormalConnection(matrix, conn.nu), stratum


def slope(conn):
    """Katz slope: r/e of the fundamental stratum that the descent of
    fundamental_stratum finds; zero for regular singular connections.
    No gauge is built; the matrix is written only to raise the errors
    of fundamental_stratum, when membership in P^-r is not certified on
    the integer form or a depth-zero window reaches the residue."""
    conn = conn.standardized()
    mat, moves, a, ctx, loose = _descent(conn)
    if loose or not _in_filtration(mat, ctx, a):
        _stratum(conn, mat, moves, a, ctx, loose)
    return Fraction(-a, ctx.period)


# -- splitting ---------------------------------------------------------------


def split_connection(conn, ctx, r, slot_lists, digits=8):
    """Kill the off-diagonal blocks of a connection containing a stratum
    split along the given coordinate slots of a uniform chain.

    The matrix is read once into its integer level form on the chain
    (see :mod:`formalconn.torus`), as far as it is known; an exact
    matrix to the session precision (default_precision() t-digits).
    Its lead is level -r, and the input is checked in integers: it lies
    in P^-r (the least degree of parahoric.fildeg_certified), and its
    lead is block diagonal along the slots.  Each level d from 1 - r up
    to the target 1 - r + digits loses its off-block part by the gauge
    1 - X, X at level d + r solving ad(X)(lead) - d X = off-block part
    in integers (torus.graded_solver); an unsolvable level raises
    NotSplit.  The gauge acts on every level of the window, which is
    all returned, by the level recurrence of ``torus.gauge_levels`` (its
    docstring says why), with no inverse, and moves only the levels from
    d on, so one pass in order clears them all.  Both the matrix and the
    gauge, kept as the levels of p - 1 (``torus.gauge_step``), stay
    integer levels until they are written out once.

    Returns (p, conn') with p the exact product of the gauges 1 - X and
    conn' block diagonal to the requested depth: off-blocks have
    filtration degree >= 1 - r + digits, and conn' is known as far as
    its level form was read.  Raises, in this order, PrecisionError,
    with the window needed, when the input is not known below the target
    level, NotInFiltration when it does not lie in P^-r, and NotSplit
    when its leading term is not block diagonal.
    """
    conn = conn.standardized()
    n = conn.n
    part_of = {u: idx for idx, slots in enumerate(slot_lists) for u in slots}
    target = 1 - r + digits
    least, window = fildeg_certified(conn.matrix, ctx)
    if window < target:
        needed, short_by = certifying_window(conn.matrix, ctx, target)
        raise PrecisionError("splitting needs the matrix below level %d, known below %d"
                             % (target, window), needed=needed, short_by=short_by)
    if least < -r:
        raise NotInFiltration("matrix does not lie in P^%d" % -r)
    below = min(window, max(target, ctx.period * default_precision()))
    ring = integer_ring(infer_field(conn.matrix))
    cur = block_levels(conn.matrix, below, ctx, ring)
    lead = cur.get(-r, (1, [ring.const(0)] * (n * n // ctx.period)))
    if any(c for c, (u, v) in zip(lead[1], level_entries(-r, ctx)) if part_of[u] != part_of[v]):
        raise NotSplit("the leading term is not block diagonal along the slots")
    gauge = {}  # the levels of p - 1
    solve = graded_solver(lead, ctx, r, ring, keep=lambda u, v: part_of[u] != part_of[v])
    for d in range(min(cur, default=target), target):
        level = cur.get(d)
        if level is None or not any(c for c, (u, v) in zip(level[1], level_entries(d, ctx))
                                    if part_of[u] != part_of[v]):
            continue
        x = solve(d, level, -d)
        if x is None:
            raise NotSplit("resonant obstruction at level %d" % (d + r))
        neg_x = negated(x, ring)
        cur = gauge_levels(cur, d + r, neg_x, below, ctx, ring)
        gauge = gauge_step(d + r, neg_x, gauge, INF, ctx, ring)
    gauge[0] = ring.read([int(u == v) for u, v in level_entries(0, ctx)])
    return (levels_matrix(gauge, n, ctx, ring),
            FormalConnection(levels_matrix(cur, n, ctx, ring, below), conn.nu))


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
    every depth takes (see the module docstring).  The fundamental
    stratum's matrix is cut once, to the t-window ceil((digits + e) / e),
    which certifies level digits + 1: all that the level loop reads.

    Raises NotRegular when no regular stratum is contained,
    NonsplitField when the ground field lacks needed roots and
    PrecisionError when a window is too short for the requested digits.
    """
    conn = conn.standardized()
    field = infer_field(conn.matrix)
    gauge, cur, strat = fundamental_stratum(conn)
    r, ctx = strat.r, strat.ctx
    e = ctx.period
    mat = cur.matrix.truncate(-(-(digits + e) // e))
    report = is_regular(Stratum(ctx, r, mat, cur.nu), field)
    if not report:
        raise NotRegular("connection is not regular: %s" % report.reason)
    parts = [range(ctx.n)]
    if report.parts:
        # the split's g is constant, so g^-1 . nabla is the report's
        # g^-1 A g, which keeps the windows of A
        mat = report.conjugate
        gauge = report.gauge_inverse * gauge
        parts = [part.slots for part in report.parts]
    p, qs = _pure_block_reduce(mat, ctx, r, parts, report.leading, field, digits)
    rows = [[q.get(d, field.zero()) for d in range(-r, 1)] for q in qs]
    order = sorted(range(len(parts)), key=lambda k: sort_key(rows[k][0]))
    gauge = LaurentMatrix([p.rows[u] for k in order for u in parts[k]]) * gauge
    torus = TorusData(e, len(parts))
    a_rep = ToralElement(torus, [qs[k] for k in order])
    ft = FormalType(torus, r, [rows[k] for k in order], field)
    return DiagonalizationResult(gauge, a_rep, ft)


def _pure_block_reduce(mat, ctx, r, parts, leading, field, digits):
    """Reduce a matrix on a uniform chain whose leading level -r is block
    diagonal along ``parts`` (lists of slots, one slot per phase class,
    in descending phase) to q(varpi^(-1)) in every part, working in its
    integer level form (see :mod:`formalconn.torus`).  Each part must be
    pure, with its leading datum alpha in ``leading``, as is_regular
    reports it (at rank one the t^-r coefficient, which may vanish).

    The matrix is read once into levels through ``digits``, all that the
    reduction reads.  A normalizer D, a constant diagonal read off each
    part's entries at level -r, rescales the part's slots so that its
    lead is alpha varpi^(-r), by two level-0 products per level.  Each
    level v from 1 - r through ``digits`` is then cleared.  The mean c
    of a part's slots is its Cartan part: for v <= 0 it goes into that
    part's q, for v > 0 the gauge 1 + Y, Y = (e c / v) varpi^v, cancels
    it through its derivative term.  The rest of the level is the target
    of the graded ad-equation against the leading level, with the graded
    derivative -v X at depth zero, solved in integers by
    torus.graded_solver, which eliminates each level class once (v mod
    e, and v itself at depth zero, where alone the shift enters); the
    gauge 1 - X removes it, and an unsolvable level raises NotRegular.

    The gauged matrix A' is never formed whole.  The loop keeps Q, the
    product Q <- (1 + X) Q of the unipotent gauges so far, as the levels
    of Q - 1 (``torus.gauge_step``), and the levels of A' that stay
    nonzero below the current one: the leading level, then the Cartan
    levels v <= 0.  Level v is formed once, when the loop reaches it,
    from A'Q = QA - tau(Q) (``torus.gauged_level``), over one common
    denominator and without an inverse; before the first gauge it is A's
    level as read.  A gauge applied at level v moves only the levels
    from v on: X's gauge because X lies at v + r, the Cartan gauge
    because it commutes with the leading and the Cartan levels, so that
    it moves level v by -tau(Y) alone.  So the levels kept are final.  Q
    is kept below level e w, with w = ceil((digits + r + e) / e), and
    the gauge returned is Q D = D + (Q - 1) D, cut to t^w: the levels
    above move the result only beyond level digits.

    Raises PrecisionError when the window ends before level digits + 1,
    which the reduction consumes.  Returns (gauge, [dict of
    q-coefficients in degrees -r..0 per part]).
    """
    e, n = ctx.period, ctx.n
    m, below, w = n // e, digits + 1, -(-(digits + r + e) // e)
    _, window = fildeg_certified(mat, ctx)
    if window < below:
        needed, short_by = certifying_window(mat, ctx, below)
        raise PrecisionError("diagonalization needs the matrix below level %d, known below %d"
                             % (below, window), needed=needed, short_by=short_by)
    ring = integer_ring(field)
    a = block_levels(mat, below, ctx, ring)
    zero = ring.const(0)
    empty = (1, [zero] * (n * m))
    den, lead = a.get(-r, empty)
    # each row's one entry at the lead inside its own part
    part_of = {u: k for k, slots in enumerate(parts) for u in slots}
    xs = {u: ring.scalar(c, den) for c, (u, v) in zip(lead, level_entries(-r, ctx))
          if part_of[u] == part_of[v]}
    h = {}
    for slots, alpha in zip(parts, leading):
        h.update(zip(slots, _pure_normalizer(e, r, [xs[u] for u in slots], alpha, field)))
    qs = [{-r: alpha} if not is_zero(alpha) else {} for alpha in leading]
    norm = ring.read([h[u] if u == v else 0 for u, v in level_entries(0, ctx)])
    normalize = any(c != 1 for c in h.values())
    if normalize:
        inv = ring.read([scalar_inverse(h[u]) if u == v else 0 for u, v in level_entries(0, ctx)])
        a = {d: reduced(*level_product(level_product(norm, d, x, ctx, ring), 0, inv, ctx, ring),
                        ring) for d, x in a.items()}
    lead = a.get(-r, empty)
    solve = graded_solver(lead, ctx, r, ring)
    # Q - 1, Q the product of the unipotent gauges applied so far
    gauge = {}
    # the levels of the gauged matrix below the current one that stay
    # nonzero: the lead, then the Cartan levels v <= 0
    low = {-r: lead} if any(lead[1]) else {}
    # the level slots of each part's own entries, by level mod e
    inner = [[[s for s, (u, v) in enumerate(level_entries(d, ctx))
               if part_of[u] == k == part_of[v]] for d in range(e)] for k in range(len(parts))]
    for v in range(1 - r, below):
        level = gauged_level(v, gauge, a, low, ctx, ring)
        if not any(level[1]):
            continue
        # the Cartan part of each part: its slots' mean, sum / (e den)
        den, nums = level
        sums = [reduce(ring.add, [nums[s] for s in idx[v % e]], zero) for idx in inner]
        if any(sums):
            cartan = [zero] * (n * m)
            for idx, c in zip(inner, sums):
                for s in idx[v % e]:
                    cartan[s] = c
            if v > 0:
                # the gauge 1 + Y, Y = (e mean / v) varpi^v, commutes with
                # the levels below v, so it moves level v by -tau(Y) alone
                y = (den * v, cartan)
                gauge = gauge_step(v, y, gauge, e * w, ctx, ring)
                level = level_sum(level, neg_tau(y, v, ctx, ring), ring)
            else:
                for q, c in zip(qs, sums):
                    if c:
                        q[v] = ring.scalar(c, den * e)
                low[v] = reduced(den * e, cartan, ring)
                level = level_sum(level, negated(low[v], ring), ring)
        if not any(level[1]):
            continue
        x = solve(v, level, -v)
        if x is None:
            raise NotRegular("graded ad-equation unsolvable at level %d" % v)
        gauge = gauge_step(v + r, negated(x, ring), gauge, e * w, ctx, ring)
    # the gauge returned is Q D = D + (Q - 1) D
    if normalize:
        gauge = {d: reduced(*level_product(g, 0, norm, ctx, ring), ring) for d, g in gauge.items()}
    gauge[0] = norm
    return LaurentMatrix([[LaurentScalar(entry.truncate(w).coeffs) for entry in row]
                          for row in levels_matrix(gauge, n, ctx, ring).rows]), qs


def _pure_normalizer(n, r, xs, alpha, field):
    """Constant diagonal p with Ad(p)(x varpi^(-r)) = alpha varpi^(-r):
    solve p_u = alpha p_(u-r) / x_u around the r-cycle (gcd(r,n)=1).
    Returns the diagonal entries."""
    diag = [field.one()] * n
    for k in range(1, n):
        u = k * r % n
        diag[u] = alpha * diag[(u - r) % n] * scalar_inverse(xs[u])
    return diag
