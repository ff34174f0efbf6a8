"""Uniform maximal tori in block-diagonal position and the tame
corestriction onto their Cartan algebras.

The torus data (e, m) describes n = e*m with m diagonal blocks of size
e; inside each block the degree-e ramified extension E is realized by
sending its uniformizer to the e x e shift matrix, so that the
associated parahoric is the interleaved standard context.  A toral
element stores per-block coefficient vectors in powers of the block
uniformizer: they are the Cartan slots of the level form below
(:func:`cartan_slots`), so its realization is written by
:func:`levels_matrix` and the tame corestriction is read by
:func:`block_levels`.

Every matrix on a uniform standard chain, m slots in each of the e
phase classes, also has a *level form*: the dict {d: level} of its
filtration levels, where slot v*m + j of level d holds the coefficient
of t^w in entry (u, v), u is the j-th slot of the phase class of
phase(v) + d and d = e*w + phase(u) - phase(v).  The vector of level d
is the graded piece P^d / P^(d+1), a product of two levels is again one
level, and a gauge acts with no inverse, from A'Q = QA - tau(Q) for
the gauged matrix A'.  A loop that clears one level at a time forms
each level of A' once, when it reaches it, from the accumulated gauge
Q, kept as the levels of Q - 1 (:func:`gauge_step`), the input A and
the levels of A' below it (:func:`gauged_level`); a caller that returns
every level of the gauged matrix applies each gauge 1 + X, X one
level, to the whole level form by a level recurrence
(:func:`gauge_levels`).  The complete chain of one e x e block is the
case m = 1: there level d is varpi^d diag(c_d), slot q holding entry
((q - d) mod e, q), the Cartan part of a level is the mean of its
vector, and the graded ad-equation against alpha varpi^(-r) is a
cyclic difference system.

A level is stored as ``(den, nums)``, integer numerators over one
positive denominator, divided by their content after every update: an
int per slot over Q, and over Q(zeta_m) the power-basis coordinates of
an element of Z[zeta_m] (:func:`formalconn.linalg.integer_ring`).  The
graded ad-equation is eliminated on the integer lead once per level
class and applied to each target level in integers
(:func:`graded_solver`), so only reading a matrix in and writing it out
build field values.  :func:`graded_ad_solve` is one such solve against a
toral lead, written straight into the Cartan slots, with the Cartan
parts of the target and of the solution taken out in integers.
"""

import functools
import math
from fractions import Fraction

from .errors import GcdViolation, NotRegular, PrecisionError
from .linalg import knullspace, ring_of, solve_form
from .matrices import LaurentMatrix
from .parahoric import ParahoricContext, filtration_degree, graded_component, graded_monomials
from .scalars import format_scalar, is_zero, sort_key
from .series import INF, LaurentScalar


class TorusData:
    """Uniform torus shape: extension degree e, block count m."""

    __slots__ = ("e", "m")

    def __init__(self, e, m):
        assert e >= 1 and m >= 1
        self.e = e
        self.m = m

    @property
    def n(self):
        return self.e * self.m

    def context(self):
        return ParahoricContext.interleaved(self.e, self.m)

    def __eq__(self, other):
        return isinstance(other, TorusData) and (self.e, self.m) == (other.e, other.m)

    def __repr__(self):
        return "TorusData(e=%d, m=%d)" % (self.e, self.m)


class ToralElement:
    """Element of the Cartan algebra: per block j, sum over d of
    coeffs[j][d] * varpi_E^d, with degrees >= prec unknown."""

    __slots__ = ("torus", "coeffs", "prec")

    def __init__(self, torus, coeffs, prec=INF):
        self.torus = torus
        cleaned = []
        for block in coeffs:
            cleaned.append({d: c for d, c in block.items() if d < prec and not is_zero(c)})
        self.coeffs = cleaned
        self.prec = prec

    @classmethod
    def zero(cls, torus, prec=INF):
        return cls(torus, [{} for _ in range(torus.m)], prec)

    def min_degree(self):
        degs = [min(block) for block in self.coeffs if block]
        return min(degs) if degs else self.prec

    def coeff(self, j, d):
        if d >= self.prec:
            raise PrecisionError("toral coefficient at degree %d unknown" % d, needed=d + 1)
        return self.coeffs[j].get(d, Fraction(0))

    def leading_at(self, depth):
        """Per-block coefficients at degree -depth."""
        return [block.get(-depth, Fraction(0)) for block in self.coeffs]

    def realization(self):
        """The block-diagonal series matrix, written as the level form on
        the interleaved chain whose level d holds the coefficient of
        varpi^d of block j in every Cartan slot of block j
        (:func:`cartan_slots`).  Levels from ``prec`` on are unknown, so
        each entry is known to the order at which level ``prec`` starts."""
        torus = self.torus
        vecs = _cartan_vectors(torus, self.coeffs)
        ring = ring_of(vecs.values())
        return levels_matrix({d: ring.read(vec) for d, vec in vecs.items()}, torus.n,
                             torus.context(), ring, self.prec)

    def is_zero(self):
        return all(not blk for blk in self.coeffs)

    def agrees(self, other, through=None):
        bound = min(self.prec, other.prec)
        if through is not None:
            bound = min(bound, through)
        for a, b in zip(self.coeffs, other.coeffs):
            for d in set(a) | set(b):
                if d < bound and a.get(d, 0) != b.get(d, 0):
                    return False
        return True

    def to_json(self):
        return {"e": self.torus.e, "m": self.torus.m,
                "blocks": [sorted(((d, format_scalar(c)) for d, c in blk.items()))
                           for blk in self.coeffs]}

    def __repr__(self):
        return "ToralElement(e=%d, m=%d, %r)" % (self.torus.e, self.torus.m, self.coeffs)


def tame_corestriction(x, torus, nu):
    """The t-bimodule projection onto the Cartan algebra:
    pi(X) = sum_{s,i} psi_s^i(X) varpi^s eps_i with
    psi_s^i(X) = (1/e) <varpi^(-s) eps_i, X>_nu.

    Requires nu of order -1.  The projection itself is independent of
    the chosen form (F-linearity moves the unit scalar through pi), so
    it is evaluated by the dt/t coefficient extraction on the level form
    of X on the interleaved chain: psi_s^i(X) is the mean of the Cartan
    slots of block i at level s (:func:`cartan_slots`), known below
    :func:`_cartan_window`.
    """
    if nu.order != -1:
        raise GcdViolation("tame corestriction requires a one-form of order -1")
    e, prec = torus.e, _cartan_window(x, torus)
    ring = ring_of([entry.coeffs.values() for row in x.rows for entry in row])
    levels = block_levels(x, prec, torus.context(), ring)
    blocks = [{} for _ in range(torus.m)]
    for s in sorted(levels):
        den, nums = levels[s]
        for blk, total in zip(blocks, _cartan_sums(nums, torus, ring)):
            if total:
                blk[s] = ring.scalar(total, e * den)
    return ToralElement(torus, blocks, prec)


def cartan_slots(torus, j):
    """The slots of block j's Cartan part in a level d of the level form
    on ``torus.context()``: slot (j*e + q)*m + j is entry ((q - d) mod e,
    q) of block j, for q < e."""
    return [(j * torus.e + q) * torus.m + j for q in range(torus.e)]


def _cartan_window(x, torus):
    """The first level of x's level form on ``torus.context()`` with an
    unknown Cartan slot: the least e * prec(u, v) + phase(u) - phase(v),
    the level where entry (u, v)'s window starts, over the entries inside
    the e x e diagonal blocks, the only ones that hold Cartan slots."""
    e, phases = torus.e, torus.context().phases
    return min((e * x.rows[u][v].prec + phases[u] - phases[v]
                for b in range(0, torus.n, e) for u in range(b, b + e) for v in range(b, b + e)
                if x.rows[u][v].prec is not INF), default=INF)


def _cartan_vectors(torus, blocks):
    """{d: vector of level d} with block j's coefficient of varpi^d in
    each Cartan slot of block j, for the per-block dicts ``blocks``."""
    vecs = {}
    for j, block in enumerate(blocks):
        for d, c in block.items():
            vec = vecs.setdefault(d, [0] * (torus.n * torus.m))
            for k in cartan_slots(torus, j):
                vec[k] = c
    return vecs


def _cartan_sums(nums, torus, ring):
    """Per block j, the sum of the Cartan slots of block j in the level
    numerators ``nums``: e times the level's Cartan part."""
    return [functools.reduce(ring.add, [nums[k] for k in cartan_slots(torus, j)])
            for j in range(torus.m)]


def lead_collision(lead, power):
    """The diagnostic for the first two leading coefficients with equal
    ``power``-th powers, or None.  At depth r > 0, y = beta^e t^r is
    alpha_j^e on block j, so alpha and zeta alpha (zeta^e = 1) give
    Galois-conjugate blocks; at depth zero y = beta (power 1)."""
    seen = {}
    for j, c in enumerate(lead):
        i = seen.setdefault(sort_key(c ** power), j)
        if i != j:
            return "leading coefficients %d and %d have equal powers c^%d" % (i, j, power)
    return None


def regular_depth(xi):
    """Depth r of a toral element with regular leading term: leading
    degree is -r, the per-block leading coefficients are nonzero, their
    e-th powers (at r = 0 the coefficients themselves) are pairwise
    distinct (:func:`lead_collision`), and gcd(r, e) = 1 when r > 0."""
    d0 = xi.min_degree()
    if d0 is INF or d0 > 0:
        raise NotRegular("toral element has no polar part")
    r = -d0
    lead = xi.leading_at(r)
    if any(is_zero(a) for a in lead) and xi.torus.m > 1:
        raise NotRegular("a block leading coefficient vanishes")
    clash = lead_collision(lead, xi.torus.e if r > 0 else 1)
    if clash:
        raise NotRegular(clash)
    if r > 0 and math.gcd(r, xi.torus.e) != 1:
        raise GcdViolation("gcd(r, e) != 1")
    return r


def graded_ad_solve(xi, y):
    """Solve ad(X)(xi) + pi_t(Y) = Y modulo P^(l-r+1) for X in P^l,
    where l = fildeg(Y) + r and xi has regular leading term at depth -r,
    on the chain of ``xi.torus``.

    The graded level of Y loses its Cartan part and is solved by
    :func:`graded_solver`; the kernel ambiguity is fixed by removing the
    Cartan part of the solution too.  Returns the monomial representative
    of X.  Raises PrecisionError when Y's level has an unknown Cartan
    slot (:func:`_cartan_window`).
    """
    torus = xi.torus
    ctx = torus.context()
    r = regular_depth(xi)
    level = filtration_degree(y, ctx)
    if level is INF:
        return LaurentMatrix.zero(ctx.n)
    if level >= _cartan_window(y, torus):
        # needed: the least window, common to all entries, that makes the level known
        raise PrecisionError("Cartan part of level %d unknown" % level,
                             needed=-(-level // torus.e) + 1)
    tgt = graded_component(y, ctx, level).pattern
    ring = ring_of([xi.leading_at(r)], tgt)
    x = graded_solver(_lead_level(xi, r, ring), ctx, r, ring)(
        level, _without_cartan(pattern_level(tgt, level, ctx, ring), torus, ring))
    if x is None:
        raise NotRegular("graded ad-equation unsolvable; leading term not regular")
    return levels_matrix({level + r: _without_cartan(x, torus, ring)}, ctx.n, ctx, ring)


def graded_ad_image_solve(xi, target, ctx, level):
    """Low-level: solve ad(X)(xi) = target on the graded piece at
    ``level`` = fildeg(target), on ``ctx`` = ``xi.torus.context()``; X in
    P^(level + r).  Returns None when the target has a toral graded
    component (the kernel obstruction)."""
    r = regular_depth(xi)
    tgt = graded_component(target, ctx, level)
    if tgt.is_zero():
        return LaurentMatrix.zero(ctx.n)
    ring = ring_of([xi.leading_at(r)], tgt.pattern)
    x = graded_solver(_lead_level(xi, r, ring), ctx, r, ring)(
        level, pattern_level(tgt.pattern, level, ctx, ring))
    return None if x is None else levels_matrix({level + r: x}, ctx.n, ctx, ring)


def _lead_level(xi, r, ring):
    """Level -r of xi's realization."""
    return ring.read(_cartan_vectors(xi.torus, [{-r: c} for c in xi.leading_at(r)])[-r])


def _without_cartan(level, torus, ring):
    """The level less its Cartan part: each Cartan slot of block j less
    the mean of them (:func:`_cartan_sums`)."""
    den, nums = level
    out = [ring.scale(torus.e, c) for c in nums]
    for j, total in enumerate(_cartan_sums(nums, torus, ring)):
        for k in cartan_slots(torus, j):
            out[k] = ring.add(out[k], ring.neg(total))
    return reduced(torus.e * den, out, ring)


def graded_solver(lead, ctx, r, ring, keep=None):
    """solve(level, target, shift=0): X's level at level + r with
    ad(X)(lead) + shift * X = target at ``level``, for ``lead`` the level
    -r of a level form on ``ctx``, or None when the target is
    inconsistent.  X is the solution that ksolve gives, zero at every
    free column.  The system depends on ``level`` only mod e and on
    ``shift`` only at r = 0, so solve eliminates it once per such class
    (:func:`_graded_system`) and solves each target by integer dot
    products."""
    systems = {}

    def solve(level, target, shift=0):
        key = level % ctx.period, shift if r == 0 else 0
        if key not in systems:
            systems[key] = _graded_system(lead, ctx, level, r, ring, keep, shift)
        equations, size, plan, den, checks = systems[key]
        b = [target[1][s] for s in equations]
        if any(ring.dot(row, b) for row in checks):
            return None
        x = [ring.const(0)] * size
        for s, row in plan:
            x[s] = ring.dot(row, b)
        return reduced(den * target[0], x, ring)

    return solve


def _graded_system(lead, ctx, level, r, ring, keep, shift):
    """The graded ad-equation at ``level`` eliminated by solve_form:
    (equation slots, size of X's level, (slot, row) per pivot, den, left
    kernel rows); X's slot is row . b / (den * target den).

    Unknowns and equations sit on the graded monomial slots (u, v) with
    keep(u, v) true (every slot when ``keep`` is None), the unknowns in
    the order of graded_monomials, on which the free columns depend.
    With P the lead's pattern, the column of the unknown E_uv is the
    pattern E_uv P - P E_uv: row v of P moved to row u, minus column u of
    P moved to column v, plus ``shift`` at (u, v) when r = 0 (for r > 0,
    shift * X lies beyond ``level``).  The equations carry the lead's
    denominator, which moves into X's."""
    den, nums = lead
    zero = ring.const(0)
    pat = {uv: c for c, uv in zip(nums, level_entries(-r, ctx)) if c}
    slots = level_entries(level + r, ctx)
    where = {uv: s for s, uv in enumerate(slots)}
    unknowns = [(u, v) for (u, v, _) in graded_monomials(ctx, level + r)
                if keep is None or keep(u, v)]
    equations = [(s, uu, vv) for s, (uu, vv) in enumerate(level_entries(level, ctx))
                 if keep is None or keep(uu, vv)]
    diag = ring.const(shift * den) if r == 0 else zero
    rows = []
    for _, uu, vv in equations:
        row = []
        for u, v in unknowns:
            val = pat.get((v, vv), zero) if uu == u else zero
            if vv == v:
                val = ring.add(val, ring.neg(pat.get((uu, u), zero)))
                if uu == u and diag:
                    val = ring.add(val, diag)
            row.append(val)
        rows.append(row)
    pivots, sden, right, checks = solve_form(ring, rows, len(unknowns))
    return ([s for s, _, _ in equations], len(slots),
            [(where[unknowns[c]], [ring.scale(den, x) for x in row])
             for c, row in zip(pivots, right)], sden, checks)


def delta_kernel_dimension(e, r):
    """Kernel dimension of ad(varpi^(-r)) on the graded piece
    I^l / I^(l+1) of the complete chain in dimension e: the cyclic
    difference system x_p - x_(p-r)."""
    rows = []
    for p in range(e):
        row = [Fraction(0)] * e
        row[p] += 1
        row[(p - r) % e] -= 1
        rows.append(row)
    return len(knullspace(rows))


# -- level forms on a uniform chain ------------------------------------------


def level_entries(d, ctx):
    """The entry (u, v) behind each slot of level d, in slot order: slot
    v*m + j holds u, the j-th slot of the phase class of phase(v) + d."""
    e, phases, classes = ctx.period, ctx.phases, ctx.phase_classes
    return [(u, v) for v in range(ctx.n) for u in classes[(phases[v] + d) % e]]


def level_sum(a, b, ring):
    """The level a + b (a None is zero) over the least common
    denominator, divided by its content."""
    den, nums = b
    if a is not None:
        g = math.gcd(a[0], den)
        xs = a[1] if den == g else [ring.scale(den // g, x) for x in a[1]]
        ys = nums if a[0] == g else [ring.scale(a[0] // g, y) for y in nums]
        den, nums = a[0] // g * den, [ring.add(x, y) for x, y in zip(xs, ys)]
    return reduced(den, nums, ring)


def reduced(den, nums, ring):
    """The level nums / den, den > 0, divided by the gcd of den and the
    content of nums."""
    g = math.gcd(den, ring.content(nums))
    return (den, nums) if g == 1 else (den // g, [ring.exact_div(x, g) for x in nums])


def negated(level, ring):
    return level[0], [ring.neg(c) for c in level[1]]


def block_levels(x, below, ctx, ring):
    """The level form {d: level} of a matrix on a uniform chain, levels
    from ``below`` on dropped: the coefficient of t^w in entry (u, v) is
    slot v*m + j of level d = e*w + phase(u) - phase(v), u the j-th slot
    of its phase class.  Each level is read into integers once, by
    ``ring`` (:func:`formalconn.linalg.integer_ring`)."""
    e, m, phases = ctx.period, x.n // ctx.period, ctx.phases
    pos = {u: j for cls in ctx.phase_classes for j, u in enumerate(cls)}
    out = {}
    for u, row in enumerate(x.rows):
        for v, entry in enumerate(row):
            for w, c in entry.coeffs.items():
                d = e * w + phases[u] - phases[v]
                if d < below:
                    out.setdefault(d, [0] * (x.n * m))[v * m + pos[u]] = c
    return {d: ring.read(vec) for d, vec in out.items()}


def levels_matrix(levels, n, ctx, ring, below=INF):
    """The n x n matrix of a level form (see :func:`block_levels`), one
    canonical Fraction or Ext per coefficient: exact, or, when ``below``
    is finite, with each entry known to the order that level ``below``
    starts at."""
    e, phases = ctx.period, ctx.phases
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for d, (den, nums) in levels.items():
        if d < below:
            for c, (u, v) in zip(nums, level_entries(d, ctx)):
                if c:
                    entries[u][v][(d - phases[u] + phases[v]) // e] = ring.scalar(c, den)
    return LaurentMatrix([[LaurentScalar._raw(
        entries[u][v], INF if below is INF else -((phases[u] - phases[v] - below) // e))
        for v in range(n)] for u in range(n)])


def pattern_level(pat, d, ctx, ring):
    """Level d of a level form on ``ctx`` from its graded pattern."""
    return ring.read([pat[u][v] for u, v in level_entries(d, ctx)])


def level_product(x, b, y, ctx, ring):
    """The level z of XY for X, Y levels x at a, y at b (z is at a + b),
    over the product of their denominators: slot (v, j) of z sums slot
    (k, j) of x times slot (v, i) of y over the rows k of column v at
    level b, i the slot of k in its class.  On the complete chain (m =
    1) this is varpi^a diag(x) * varpi^b diag(y) = varpi^(a+b) diag(z)
    with z[q] = x[(q - b) mod e] y[q].  The offsets k m come from the
    context's gather plan for b mod e (:func:`_gather_plan`)."""
    m = ctx.n // ctx.period
    (dx, xs), (dy, ys) = x, y
    plan = ctx.memo(_gather_plan, b % ctx.period)
    mul, zero = ring.mul, ring.const(0)
    if m == 1:
        return dx * dy, [mul(xs[k], c) if c else zero for (k,), c in zip(plan, ys)]
    z = []
    for v, ks in enumerate(plan):
        cs = ys[v * m:(v + 1) * m]
        hits = m - cs.count(zero)
        if hits == 1:
            i = next(i for i, c in enumerate(cs) if c)
            c, k = cs[i], ks[i]
            z.extend([mul(a, c) if a else zero for a in xs[k:k + m]])
        elif hits:
            z.extend([ring.dot([xs[k + j] for k in ks], cs) for j in range(m)])
        else:
            z.extend([zero] * m)
    return dx * dy, z


def _gather_plan(ctx, b):
    """For each column v, the offsets k m of the rows k of column v at
    level b mod e, the phase class of phase(v) + b."""
    e, m, phases, classes = ctx.period, ctx.n // ctx.period, ctx.phases, ctx.phase_classes
    return tuple(tuple(k * m for k in classes[(phases[v] + b) % e]) for v in range(ctx.n))


def unipotent_times(ell, xi, levels, below, ctx, ring):
    """The level form of (1 + X) A for X the level xi at ell, levels
    from ``below`` on dropped."""
    out = dict(levels)
    for d, vec in levels.items():
        if d + ell < below and any(vec[1]):
            out[d + ell] = level_sum(out.get(d + ell), level_product(xi, d, vec, ctx, ring), ring)
    return out


def neg_tau(x, d, ctx, ring):
    """The level -tau(X) for X the level x at d, tau = t d/dt: slot (u,
    v) times minus its t-exponent w = (d - phase(u) + phase(v)) / e,
    over x's denominator."""
    e, phases = ctx.period, ctx.phases
    return x[0], [ring.scale((phases[u] - phases[v] - d) // e, c)
                  for c, (u, v) in zip(x[1], level_entries(d, ctx))]


def gauge_step(ell, xi, q, below, ctx, ring):
    """The levels of (1 + X) Q - 1 = Q' + X + X Q' for X the level xi at
    ell >= 1 and Q = 1 + Q', Q' the levels ``q`` (all at 1 and above),
    levels from ``below`` on dropped."""
    out = unipotent_times(ell, xi, q, below, ctx, ring)
    if ell < below:
        out[ell] = level_sum(out.get(ell), xi, ring)
    return out


def gauged_level(d, q, a, low, ctx, ring):
    """Level d of the gauged matrix A' = Q . A against dt/t, for the
    levels ``q`` of Q - 1 (a gauge Q with Q_0 = 1, so all at 1 and
    above), the level form ``a`` of A, and ``low`` = {j: A'_j} holding
    every nonzero level of A' below d.  From A'Q = QA - tau(Q),

        A'_d = A_d + sum_i Q_i A_(d-i) - tau(Q)_d - sum_(j<d) A'_j Q_(d-j),

    i and d - j >= 1, summed over the least common denominator of the
    terms and divided by its content once; with Q = 1 it is A_d as read.
    No other level of A' is formed, so a loop that clears A' level by
    level, and keeps only the levels it has left nonzero, pays for each
    level once; :func:`gauge_levels` forms every level at each gauge
    instead."""
    if not q:
        return a.get(d) or (1, [ring.const(0)] * (ctx.n * ctx.n // ctx.period))
    terms = [(1, a[d])] if d in a else []
    for i, qi in q.items():
        if d - i in a:
            terms.append((1, level_product(qi, d - i, a[d - i], ctx, ring)))
    if d in q:
        terms.append((1, neg_tau(q[d], d, ctx, ring)))
    for j, lj in low.items():
        if j < d and d - j in q:
            terms.append((-1, level_product(lj, d - j, q[d - j], ctx, ring)))
    if not terms:
        return 1, [ring.const(0)] * (ctx.n * ctx.n // ctx.period)
    den = math.lcm(*(level[0] for _, level in terms))
    scales = [ring.const(sign * (den // level[0])) for sign, level in terms]
    return reduced(den, [ring.dot(scales, col) for col in zip(*(level[1] for _, level in terms))],
                   ring)


def gauge_levels(levels, ell, xi, below, ctx, ring):
    """The level form of (1 + X) . A against dt/t for X the level xi at
    ell >= 1, with A known below level ``below``.

    From A' (1 + X) = (1 + X) A - tau X, the matrix B = A + XA - tau X
    is formed once and A' = B - A'X is solved level by level from the
    bottom: A'X at level d needs A' only at level d - ell.  No inverse
    is formed, and the window stays ``below``.  Every level of A' is
    formed, so this suits a caller that returns the whole gauged
    matrix: ``connections.split_connection``, its one caller, whose
    window reaches up to e * default_precision() levels.  Forming each
    of those afresh by :func:`gauged_level` costs a product per level
    of Q - 1 at every level: on exact inputs gauged by a unit, windows
    of 21 to 71 levels, it made 11,623 level products against 4,451 here
    and took 1.9 times the time; on the narrow windows of the split
    diagonalize corpora the two tie.
    """
    out = unipotent_times(ell, xi, levels, below, ctx, ring)
    if ell < below:
        out[ell] = level_sum(out.get(ell), neg_tau(xi, ell, ctx, ring), ring)
    neg = negated(xi, ring)
    for d in range(min(out, default=below) + ell, below):
        src = out.get(d - ell)
        if src is not None and any(src[1]):
            out[d] = level_sum(out.get(d), level_product(src, ell, neg, ctx, ring), ring)
    return out
