"""The steps of diagonalization against the reference steps of ``helpers``.

The library solves each graded level on integer levels, writes toral
realizations and reads tame corestrictions through the level form,
lifts Hensel factorizations digit by digit,
gauges with two products instead of three, reduces pure blocks in the
integer level form of their chain (the complete chain, one slot per
phase class; the level-form properties run over Q, Q(i), Q(zeta_3) and
Q(zeta_5), where products fold), splits strata by a constant basis
change and inverts in Q(zeta_m) by extended Euclid.  Each must agree
exactly with the reference -- the same coefficients and the same
windows -- except the gauge action, whose windows may only grow, the
pure-block reduction, whose gauge is compared cut to the t-window it
keeps and which may answer where the reference loses its window (see
``test_pure_block_reduce_matches_reference``), and the split, whose
gauge differs from the Hensel split's, so that only the formal type and
the toral representative must agree.
"""

import math
import random
from fractions import Fraction

from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from formalconn.connections import (FormalConnection, _pure_block_reduce, diagonalize,
                                    fundamental_stratum, gauge_transform)
from formalconn.errors import FormalConnError, NonsplitField, NotRegular, PrecisionError
from formalconn.formal_types import FormalType
from formalconn.linalg import integer_ring, kinverse, ring_of
from formalconn.matrices import LaurentMatrix
from formalconn.parahoric import (ParahoricContext, fildeg_certified, filtration_degree,
                                  graded_component, graded_monomials, standard_chain)
from formalconn.polys import hensel_lift, kpoly_deg, kpoly_gcd, kpoly_mul
from formalconn.scalars import congruent_mod_z, get_field, sort_key
from formalconn.series import INF, LaurentScalar, OneForm
from formalconn.strata import off_block_filtration_ok, reduce_stratum, split_stratum
from formalconn.torus import (ToralElement, TorusData, block_levels, gauge_levels,
                              graded_solver, level_entries, level_product, levels_matrix,
                              pattern_level, tame_corestriction)

from helpers import (ref_ext_inverse, ref_gauge_transform, ref_graded_level_solve,
                     ref_hensel_lift, ref_pure_block_reduce, ref_realization,
                     ref_split_diagonalize, ref_tame_corestriction, spoly_mul)

Q = get_field("Q")
QI = get_field("Q(i)")
QZ3 = get_field("Q(zeta_3)")
QZ5 = get_field("Q(zeta_5)")
# the level-form tests also run where products fold: Q(zeta_5) has degree 4
LEVEL_FIELDS = [Q, QI, QZ3, QZ5]
NU = OneForm.dt_over_t()

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = rationals.filter(bool)


def scalars(field):
    if field is Q:
        return rationals
    return st.builds(lambda *cs: field.from_coords(cs), *[rationals] * field.degree)


def nonzero_scalars(field):
    return scalars(field).filter(bool)


def same(x, y):
    return x.coeffs == y.coeffs and x.prec == y.prec and \
        (x.prec is INF) == (y.prec == INF)


def same_matrix(a, b):
    if a is None or b is None:
        return a is b
    return all(same(x, y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))


@st.composite
def contexts(draw):
    """A grouped standard chain of a composition, or a torus chain."""
    if draw(st.booleans()):
        e, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        return ParahoricContext.interleaved(e, m)
    n = draw(st.integers(1, 4))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    blocks, size = [], 1
    for cut in cuts:
        if cut:
            blocks.append(size)
            size = 1
        else:
            size += 1
    blocks.append(size)
    return standard_chain(blocks)


@st.composite
def in_level(draw, ctx, level, coefficients, terms=3, windows=False):
    """A matrix of P^level: each entry starts at its least allowed order;
    with ``windows`` it may be known only to a window past that order."""
    rows = []
    for u in range(ctx.n):
        row = []
        for v in range(ctx.n):
            lo = ctx.min_entry_order(u, v, level)
            exps = draw(st.lists(st.integers(lo, lo + terms), max_size=terms, unique=True))
            prec = draw(st.one_of(st.just(INF), st.integers(lo + 1, lo + terms + 2))) \
                if windows else INF
            row.append(LaurentScalar({k: draw(coefficients) for k in exps}, prec))
        rows.append(row)
    return LaurentMatrix(rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graded_solver_on_any_chain_matches_reference(data):
    """The graded solver on patterns read into levels (pattern_level) and
    its solution written back (levels_matrix) gives ksolve's solution on
    the system of series products (ref_graded_level_solve), or None with
    it, on grouped standard chains of any composition and torus chains,
    for windowed targets, both keeps and shifts -3..3."""
    ctx = data.draw(contexts())
    field = data.draw(st.sampled_from([Q, QI]))
    r = data.draw(st.integers(0, 3))
    level = data.draw(st.integers(-2, 3))
    slots = graded_monomials(ctx, -r)
    lead = LaurentMatrix.zero(ctx.n)
    for (u, v, o) in slots:
        c = data.draw(scalars(field))
        if c:
            lead = lead + LaurentMatrix([[LaurentScalar.t_power(o, c) if (i, j) == (u, v)
                                          else LaurentScalar.zero() for j in range(ctx.n)]
                                         for i in range(ctx.n)])
    target = data.draw(in_level(ctx, level, scalars(field), windows=True))
    parts = data.draw(st.lists(st.integers(0, 2), min_size=ctx.n, max_size=ctx.n))
    keep = data.draw(st.sampled_from([None, lambda u, v: parts[u] != parts[v]]))
    shift = data.draw(st.integers(-3, 3))
    ref = ref_graded_level_solve(lead, target, ctx, level, r, keep=keep, shift=shift)
    tgt = graded_component(target, ctx, level).pattern
    pat = graded_component(lead, ctx, -r).pattern
    ring = ring_of(pat, tgt)
    x = graded_solver(pattern_level(pat, -r, ctx, ring), ctx, r, ring, keep)(
        level, pattern_level(tgt, level, ctx, ring), shift)
    new = None if x is None else levels_matrix({level + r: x}, ctx.n, ctx, ring)
    assert same_matrix(new, ref)


@st.composite
def solver_chains(draw):
    """A uniform chain with e in 1..4 and m in 1..2: a torus chain or
    the grouped standard chain."""
    e, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    return ParahoricContext.interleaved(e, m) if draw(st.booleans()) else standard_chain((m,) * e)


def draw_level(data, ctx, ring, field):
    """A random level of the level form on ctx, read into ``ring``."""
    size = ctx.n * ctx.n // ctx.period
    return ring.read(data.draw(st.lists(scalars(field), min_size=size, max_size=size)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graded_solver_matches_ksolve(data):
    """The graded solver, applied to a target level and to a target e
    levels higher, gives at each the solution that ksolve gives on the
    system of series products (ref_graded_level_solve), or None with
    it; with keep None and with the keep of a block split (the parts are
    the j-th slots of the phase classes), at every depth, over Q and
    Q(i).  A target is random (mostly inconsistent where the
    system has a kernel) or the image of a random kept X, so that the
    choice of free columns shows.  The two levels share one elimination,
    so a second target checks that the system moves with the level only
    mod e."""
    ctx = data.draw(solver_chains())
    n = ctx.n
    field = data.draw(st.sampled_from([Q, QI]))
    ring = integer_ring(field)
    r = data.draw(st.integers(0, 3))
    level = data.draw(st.integers(-2, 3))
    shift = data.draw(st.integers(-3, 3))
    part = {u: j for cls in ctx.phase_classes for j, u in enumerate(cls)}
    keep = data.draw(st.sampled_from([None, lambda u, v: part[u] != part[v]]))
    lead = draw_level(data, ctx, ring, field)
    lead_mat = levels_matrix({-r: lead}, n, ctx, ring)
    solve = graded_solver(lead, ctx, r, ring, keep)
    for d in (level, level + ctx.period):
        if data.draw(st.booleans()):
            target = draw_level(data, ctx, ring, field)
        else:
            den, nums = draw_level(data, ctx, ring, field)
            kept = [c if keep is None or keep(u, v) else ring.const(0)
                    for c, (u, v) in zip(nums, level_entries(d + r, ctx))]
            xm = levels_matrix({d + r: (den, kept)}, n, ctx, ring)
            image = xm * lead_mat - lead_mat * xm
            if r == 0:
                image = image + xm * Fraction(shift)
            target = block_levels(image, d + 1, ctx, ring).get(d, (1, [ring.const(0)] * len(nums)))
        x = solve(d, target, shift)
        ref = ref_graded_level_solve(lead_mat, levels_matrix({d: target}, n, ctx, ring), ctx, d, r,
                                     keep=keep, shift=shift)
        assert same_matrix(None if x is None else levels_matrix({d + r: x}, n, ctx, ring), ref)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_graded_solver_refuses_an_inconsistent_target(data):
    """At depth r > 0 every ad(X)(lead) is trace free, so a scalar target
    c at a level of the Cartan slots (level = 0 mod e) is inconsistent,
    whatever the lead: the solver returns None."""
    ctx = data.draw(solver_chains())
    field = data.draw(st.sampled_from([Q, QI]))
    ring = integer_ring(field)
    r = data.draw(st.integers(1, 3))
    level = ctx.period * data.draw(st.integers(-1, 2))
    c = data.draw(nonzero_scalars(field))
    target = ring.read([c if u == v else 0 for u, v in level_entries(level, ctx)])
    assert graded_solver(draw_level(data, ctx, ring, field), ctx, r, ring)(level, target) is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_realization_matches_reference(data):
    torus = TorusData(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)))
    field = data.draw(st.sampled_from([Q, QI]))
    blocks = [data.draw(st.dictionaries(st.integers(-6, 6), scalars(field), max_size=5))
              for _ in range(torus.m)]
    prec = data.draw(st.one_of(st.just(INF), st.integers(-6, 8)))
    x = ToralElement(torus, blocks, prec)
    assert same_matrix(x.realization(), ref_realization(x))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_realization_knows_exactly_the_degrees_below_prec(data):
    """Changing a coefficient at a degree >= prec leaves every known
    coefficient of the realization as it is, and each entry's window is
    tight: its first unknown coefficient moves with such a change."""
    e, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    torus = TorusData(e, m)
    field = data.draw(st.sampled_from([Q, QI, QZ3]))
    prec = data.draw(st.integers(-4, 6))
    full = [data.draw(st.dictionaries(st.integers(-6, prec + 2 * e), scalars(field),
                                      max_size=6)) for _ in range(m)]
    real = ToralElement(torus, full, prec).realization()
    moved = [dict(blk) for blk in full]
    for blk in moved:
        for d in data.draw(st.lists(st.integers(prec, prec + 2 * e), max_size=3)):
            blk[d] = blk.get(d, 0) + 1
    assert real.agrees(ToralElement(torus, moved).realization())
    exact = ToralElement(torus, full).realization()
    for j in range(m):
        for p in range(e):
            for q in range(e):
                u, v = j * e + p, j * e + q
                w = real.rows[u][v].prec
                s = e * w + q - p
                assert s - e < prec <= s
                bumped = [dict(blk) for blk in full]
                bumped[j][s] = bumped[j].get(s, 0) + 1
                entry = ToralElement(torus, bumped).realization().rows[u][v]
                assert entry.coeff_or_zero(w) != exact.rows[u][v].coeff_or_zero(w)


# the entries of windowed_matrices, one strategy per field built once:
# building a strategy per drawn entry costs more than the test itself
WINDOWED_ENTRIES = {
    field: st.builds(LaurentScalar,
                     st.dictionaries(st.integers(-3, 3), st.one_of(scalars(field), rationals),
                                     max_size=3),
                     st.one_of(st.just(INF), st.integers(-4, 5)))
    for field in (Q, QI, QZ3)}


@st.composite
def windowed_matrices(draw, n, field):
    """An n x n matrix whose entries may be known only to a window, which
    may lie below their support, and may be zero to it; or the zero
    matrix."""
    if draw(st.integers(0, 9)) == 0:
        return LaurentMatrix.zero(n)
    entries = WINDOWED_ENTRIES[field]
    return LaurentMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tame_corestriction_matches_reference(data):
    torus = TorusData(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)))
    field = data.draw(st.sampled_from([Q, QI, QZ3]))
    x = data.draw(windowed_matrices(torus.n, field))
    got = tame_corestriction(x, torus, NU)
    ref = ref_tame_corestriction(x, torus, NU)
    assert got.to_json() == ref.to_json()
    assert got.prec == ref.prec
    assert got.coeffs == ref.coeffs


@st.composite
def monic(draw, degree):
    return [draw(rationals) for _ in range(degree)] + [Fraction(1)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_hensel_lift_matches_reference(data):
    g0 = data.draw(monic(data.draw(st.integers(1, 2))))
    h0 = data.draw(monic(data.draw(st.integers(1, 2))))
    assume(kpoly_deg(kpoly_gcd(g0, h0)) == 0)
    digits = data.draw(st.integers(1, 8))
    base = kpoly_mul(g0, h0)
    phi = []
    for i, c in enumerate(base):
        tail = {} if i == len(base) - 1 else \
            data.draw(st.dictionaries(st.integers(1, digits + 2), nonzero_rationals, max_size=3))
        phi.append(LaurentScalar({**tail, 0: c}, digits))
    new_g, new_h = hensel_lift(phi, [g0, h0], digits)
    ref_g, ref_h = ref_hensel_lift(phi, g0, h0, digits)
    assert len(new_g) == len(ref_g) and len(new_h) == len(ref_h)
    assert all(same(a, b) for a, b in zip(new_g + new_h, ref_g + ref_h))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_gauge_by_unipotent_matches_reference(data):
    """1 + X with X in P^1 of a random chain, on a matrix known to random
    windows or exactly: the same coefficients on the reference windows,
    and no window smaller."""
    ctx = data.draw(contexts())
    field = data.draw(st.sampled_from([Q, QI]))
    x = data.draw(in_level(ctx, 1, scalars(field)))
    g = LaurentMatrix.identity(ctx.n) + x
    a = data.draw(in_level(ctx, -data.draw(st.integers(0, 4)), scalars(field),
                           windows=data.draw(st.booleans())))
    conn = FormalConnection(a)
    new = gauge_transform(g, conn).matrix
    ref = ref_gauge_transform(g, conn)
    for row_new, row_ref in zip(new.rows, ref.rows):
        for p, q in zip(row_new, row_ref):
            assert p.prec >= q.prec
            assert p.agrees(q)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multifactor_hensel_lift(data):
    """Two to four coprime monic factors (X - a)^k lifted together: the
    product of the lifts agrees with phi through digits, each lift is
    monic with its factor as its reduction mod t, and two factors lift
    as the reference's two-factor lift does."""
    roots = data.draw(st.lists(rationals, min_size=2, max_size=4, unique=True))
    factors = []
    for a in roots:
        f = [Fraction(1)]
        for _ in range(data.draw(st.integers(1, 2))):
            f = kpoly_mul(f, [-a, Fraction(1)])
        factors.append(f)
    digits = data.draw(st.integers(1, 8))
    base = factors[0]
    for f in factors[1:]:
        base = kpoly_mul(base, f)
    phi = []
    for i, c in enumerate(base):
        tail = {} if i == len(base) - 1 else \
            data.draw(st.dictionaries(st.integers(1, digits + 2), rationals, max_size=3))
        phi.append(LaurentScalar({**tail, 0: c}, digits))
    lifts = hensel_lift(phi, factors, digits)
    prod = lifts[0]
    for lift in lifts[1:]:
        prod = spoly_mul(prod, lift, prec=digits)
    assert len(prod) == len(phi)
    assert all(a.agrees(b, through=digits) for a, b in zip(prod, phi))
    for lift, f in zip(lifts, factors):
        assert len(lift) == len(f) and lift[-1].coeffs == {0: 1}
        assert all(c.prec == digits and c.coeff_or_zero(0) == f[i] for i, c in enumerate(lift))
    if len(factors) == 2:
        ref = ref_hensel_lift(phi, factors[0], factors[1], digits)
        assert all(same(a, b) for a, b in zip(lifts[0] + lifts[1], ref[0] + ref[1]))


# -- the level form of a pure block -------------------------------------------


def complete_chain(e):
    return ParahoricContext.interleaved(e, 1)


@st.composite
def block_matrices(draw, e, field):
    return LaurentMatrix([[LaurentScalar(draw(st.dictionaries(st.integers(-3, 3),
                                                              scalars(field), max_size=3)))
                           for _ in range(e)] for _ in range(e)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_block_levels_round_trip(data):
    e = data.draw(st.integers(1, 4))
    field = data.draw(st.sampled_from(LEVEL_FIELDS))
    ring = integer_ring(field)
    x = data.draw(block_matrices(e, field))
    ctx = complete_chain(e)
    levels = block_levels(x, INF, ctx, ring)
    assert same_matrix(levels_matrix(levels, e, ctx, ring), x)
    nonzero = [d for d, (_, nums) in levels.items() if any(nums)]
    assert min(nonzero, default=INF) == filtration_degree(x, ctx)
    assert all(den > 0 and math.gcd(den, ring.content(nums)) == 1
               for den, nums in levels.values())


@st.composite
def product_chains(draw):
    """A uniform chain of one of three shapes: the complete chain (m = 1,
    e <= 4, every e = n item of diagonalize), the maximal chain (e = 1,
    m <= 4) or a mixed one (e, m >= 2); a torus chain or grouped."""
    e, m = draw(st.sampled_from([(e, 1) for e in range(1, 5)] + [(1, m) for m in range(2, 5)] +
                                [(2, 2), (2, 3), (3, 2)]))
    return ParahoricContext.interleaved(e, m) if draw(st.booleans()) else standard_chain((m,) * e)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_product_is_the_matrix_product(data):
    """The level product of x at a and y at b is the series product of
    the two levels, over Q, Q(i), Q(zeta_3) and Q(zeta_5).  Zero slots
    are frequent, so columns of y with no, one and several nonzero
    entries all occur."""
    ctx = data.draw(product_chains())
    n = ctx.n
    field = data.draw(st.sampled_from(LEVEL_FIELDS))
    ring = integer_ring(field)
    a, b = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
    size = n * n // ctx.period
    entries = st.one_of(st.just(Fraction(0)), scalars(field))
    x = ring.read(data.draw(st.lists(entries, min_size=size, max_size=size)))
    y = ring.read(data.draw(st.lists(entries, min_size=size, max_size=size)))
    prod = levels_matrix({a: x}, n, ctx, ring) * levels_matrix({b: y}, n, ctx, ring)
    assert same_matrix(levels_matrix({a + b: level_product(x, b, y, ctx, ring)}, n, ctx, ring),
                       prod)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gauge_levels_matches_gauge_transform(data):
    """The level recurrence A' = B - A'X agrees with gauge_transform(1 +
    X, A) wherever the latter knows a coefficient, and its window (the
    certified window of A) is never smaller than that of the result."""
    e = data.draw(st.integers(1, 4))
    field = data.draw(st.sampled_from(LEVEL_FIELDS))
    ring = integer_ring(field)
    ctx = complete_chain(e)
    a = data.draw(in_level(ctx, -data.draw(st.integers(0, 3)), scalars(field), windows=True))
    a = a.truncate(data.draw(st.integers(0, 4)))
    below = fildeg_certified(a, ctx)[1]
    ell = data.draw(st.integers(1, 4))
    xi = ring.read(data.draw(st.lists(scalars(field), min_size=e, max_size=e)))
    g = LaurentMatrix.identity(e) + levels_matrix({ell: xi}, e, ctx, ring)
    ref = gauge_transform(g, FormalConnection(a)).matrix
    new = levels_matrix(gauge_levels(block_levels(a, below, ctx, ring), ell, xi, below, ctx, ring),
                        e, ctx, ring)
    assert fildeg_certified(ref, ctx)[1] <= below
    for p in range(e):
        for q in range(e):
            r_entry, n_entry = ref.rows[p][q], new.rows[p][q]
            for w in set(r_entry.coeffs) | set(n_entry.coeffs):
                if w < r_entry.prec and e * w + q - p < below:
                    assert r_entry.coeff_or_zero(w) == n_entry.coeff_or_zero(w)


# -- the level form on a uniform chain ----------------------------------------


@st.composite
def uniform_contexts(draw):
    """A uniform standard chain of rank n = e m <= 6: grouped or a torus
    chain."""
    e = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6 // e))
    if draw(st.booleans()):
        return ParahoricContext.interleaved(e, m)
    return standard_chain((m,) * e)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_level_form_on_uniform_chain(data):
    """The level form of a matrix reads back to it, and its least level
    is the filtration degree."""
    ctx = data.draw(uniform_contexts())
    n = ctx.n
    field = data.draw(st.sampled_from(LEVEL_FIELDS))
    ring = integer_ring(field)
    x = data.draw(in_level(ctx, data.draw(st.integers(-3, 2)), scalars(field)))
    levels = block_levels(x, INF, ctx, ring)
    assert same_matrix(levels_matrix(levels, n, ctx, ring), x)
    nonzero = [d for d, (_, nums) in levels.items() if any(nums)]
    assert min(nonzero, default=INF) == filtration_degree(x, ctx)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gauge_levels_on_uniform_chain_matches_gauge_transform(data):
    """A random pattern X at level ell >= 1 of a uniform chain, applied
    by the level recurrence, agrees with gauge_transform(1 + X, A) read
    into levels wherever the latter knows a coefficient below the
    window; the window is the certified window of A, never smaller than
    that of gauge_transform's result."""
    ctx = data.draw(uniform_contexts())
    n = ctx.n
    field = data.draw(st.sampled_from(LEVEL_FIELDS))
    ring = integer_ring(field)
    a = data.draw(in_level(ctx, -data.draw(st.integers(0, 3)), scalars(field), windows=True))
    a = a.truncate(data.draw(st.integers(0, 4)))
    below = fildeg_certified(a, ctx)[1]
    ell = data.draw(st.integers(1, 4))
    size = n * n // ctx.period
    x = ring.read(data.draw(st.lists(scalars(field), min_size=size, max_size=size)))
    g = LaurentMatrix.identity(n) + levels_matrix({ell: x}, n, ctx, ring)
    ref = gauge_transform(g, FormalConnection(a)).matrix
    levels = gauge_levels(block_levels(a, below, ctx, ring), ell, x, below, ctx, ring)
    # every level stays over one positive denominator, divided by its content
    assert all(den > 0 and math.gcd(den, ring.content(nums)) == 1
               for den, nums in levels.values())
    new = levels_matrix(levels, n, ctx, ring, below)
    assert fildeg_certified(ref, ctx)[1] <= below
    assert fildeg_certified(new, ctx)[1] >= below
    for d, vec in block_levels(ref, below, ctx, ring).items():
        ref_level = levels_matrix({d: vec}, n, ctx, ring)
        for u in range(n):
            for v in range(n):
                for w, c in ref_level.rows[u][v].coeffs.items():
                    if w < ref.rows[u][v].prec:
                        assert new.rows[u][v].coeff_or_zero(w) == c
    for u in range(n):
        for v in range(n):
            for w, c in new.rows[u][v].coeffs.items():
                if w < ref.rows[u][v].prec:
                    assert ref.rows[u][v].coeff_or_zero(w) == c


@st.composite
def pure_blocks(draw):
    """(block, ctx, r, field, digits): a toral element of E = k((varpi)),
    varpi^e = t, with leading degree -r, realized on the complete chain,
    conjugated by a constant diagonal (so that the leading entries differ
    and the normalizer runs), gauged by a unit 1 + Y, Y in P^1, and cut
    to finite windows.  The windows reach well past level digits + 1
    (as diagonalize cuts blocks), or just past it, or one entry falls
    short of it."""
    field = draw(st.sampled_from([Q, QI, QZ3]))
    e = draw(st.integers(1, 4))
    r = draw(st.sampled_from([k for k in range(1, 6) if math.gcd(k, e) == 1]))
    digits = draw(st.integers(1, 4))
    ctx = complete_chain(e)
    # the normalizer takes an e-th root of the cyclic product of the
    # leading entries, lead^e, which lies in the field whatever the lead
    normalize = draw(st.booleans())
    lead = draw(scalars(field) if e == 1 and not normalize else nonzero_scalars(field))
    coeffs = {d: draw(scalars(field)) for d in range(1 - r, digits + 2)}
    coeffs[-r] = lead
    block = ToralElement(TorusData(e, 1), [coeffs]).realization()
    diag = draw(st.lists(nonzero_scalars(field), min_size=e, max_size=e)) \
        if normalize else [Fraction(1)] * e
    unit = LaurentMatrix([[LaurentScalar({0: c}) if p == q else LaurentScalar.zero()
                           for q, c in enumerate(diag)] for p in range(e)])
    unit = unit * (LaurentMatrix.identity(e) + draw(in_level(ctx, 1, scalars(field), terms=2)))
    conn = FormalConnection(block)
    block = (unit * block - conn.tau_of_matrix(unit)) * unit.inverse(r + digits + 6)
    mode = draw(st.sampled_from(["long", "tight", "short"]))
    short = (draw(st.integers(0, e - 1)), draw(st.integers(0, e - 1)))
    rows = []
    for p in range(e):
        row = []
        for q in range(e):
            # the least window that certifies level digits + 1
            need = ctx.min_entry_order(p, q, digits + 1)
            if mode == "long":
                slack = r + 4
            elif mode == "short" and (p, q) == short:
                slack = -draw(st.integers(1, 2))
            else:
                slack = draw(st.integers(0, 3))
            row.append(block.rows[p][q].truncate(need + slack))
        rows.append(row)
    return LaurentMatrix(rows), ctx, r, field, digits


def reduce_one_part(block, ctx, r, field, digits):
    """The level loop on a pure block as its one part."""
    p, (q,) = _pure_block_reduce(block, ctx, r, [range(ctx.n)], field, digits)
    return p, q


def reduce_reference(block, ctx, r, field, digits):
    return ref_pure_block_reduce(FormalConnection(block), ctx, r, field, digits)


def reduction_outcome(fn, block, ctx, r, field, digits):
    """(gauge JSON, gauge repr with its windows, q), the gauge cut to
    t^w, w = ceil((digits + r + e) / e), as the reduction keeps it; or
    the exception type."""
    try:
        p, q = fn(block, ctx, r, field, digits)
    except FormalConnError as exc:
        return type(exc)
    w = -(-(digits + r + ctx.period) // ctx.period)
    p = LaurentMatrix([[LaurentScalar(x.truncate(w).coeffs) for x in row] for row in p.rows])
    return p.to_json(), repr(p), q


def residual_beyond_digits(block, ctx, r, field, digits, fn):
    """gauge . block - realization(q) lies in P^(digits + 1)."""
    p, q = fn(block, ctx, r, field, digits)
    realized = ToralElement(TorusData(ctx.period, 1), [q]).realization()
    resid = gauge_transform(p, FormalConnection(block)).matrix - realized
    return filtration_degree(resid, ctx, stop_at=digits + 1) > digits


@settings(max_examples=60, deadline=None)
@given(pure_blocks())
def test_pure_block_reduce_matches_reference(case):
    """The level loop on a pure block as its one part gives the
    reference's gauge (JSON, and windows through the repr), both cut to
    t^w as the loop keeps it, and q, or raises the same exception, with
    two exemptions.  Where the block's window ends before level digits +
    1, the reduction raises PrecisionError; the reference stops at its
    window and may return fewer digits.  Where the reference runs out of
    its own windows (its gauge inverses are cut to the session precision
    and its toral realizations one digit past the least entry window)
    although the block's window suffices, it raises NotRegular or
    PrecisionError or returns a residual short of digits; the reduction
    must then answer with a residual beyond digits."""
    block, ctx, r, field, digits = case
    new = reduction_outcome(reduce_one_part, *case)
    # the cyclic product is lead^e, so the normalizer's root is in the field
    assert new is not NonsplitField
    ref = reduction_outcome(reduce_reference, *case)
    if new == ref:
        return
    if fildeg_certified(block, ctx)[1] < digits + 1:
        assert new is PrecisionError
        return
    assert not isinstance(new, type)
    assert residual_beyond_digits(*case, reduce_one_part)
    assert ref in (NotRegular, PrecisionError) or \
        not residual_beyond_digits(*case, reduce_reference)


def test_ext_inverse_matches_gauss_jordan():
    rng = random.Random(105)
    for m in (3, 4, 5, 8, 12, 105):
        field = get_field("Q(zeta_%d)" % m)
        for _ in range(2 if m == 105 else 25):
            coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.5
                      else Fraction(0) for _ in range(field.degree)]
            x = field.from_coords(coords)
            if not x:
                continue
            inv = x.inverse()
            assert inv.coords == ref_ext_inverse(x).coords
            assert x * inv == 1


def test_ext_inverse_of_zero_raises():
    for m in (3, 4, 5, 8, 12, 105):
        field = get_field("Q(zeta_%d)" % m)
        try:
            field.zero().inverse()
        except ZeroDivisionError:
            continue
        raise AssertionError("inverse of zero in %s did not raise" % field.name)


# -- the constant split against the Hensel split ------------------------------


def unipotent_pair(rng, n, lower):
    """(1 + N, (1 + N)^-1) for N strictly lower (or upper) triangular
    with entries in t Q[t] of degree <= 2; the inverse is the finite sum
    of the powers of -N."""
    nil = LaurentMatrix([[LaurentScalar({k: Fraction(rng.randint(-2, 2)) for k in (1, 2)})
                          if (j < i if lower else j > i) else LaurentScalar.zero()
                          for j in range(n)] for i in range(n)])
    one = LaurentMatrix.identity(n)
    inv = power = one
    for _ in range(n - 1):
        power = power * -nil
        inv = inv + power
    return one + nil, inv


# (e, m, r) with e in {1, 2, 3}, n = e m <= 6, m >= 2 blocks (so that
# there is a split) and depth r <= 3 with gcd(r, e) = 1
SPLIT_SHAPES = [(e, m, r) for e in (1, 2, 3) for m in range(2, 6 // e + 1)
                for r in range(4) if math.gcd(r, e) == 1 and (r or e == 1)]


def gauged_realization(ft, rng):
    """(ft, d + A dt/t): ft's realization gauged by a unit g = L U of
    GL_n(Q[t]), L and U unipotent, g = 1 mod t, drawn from rng."""
    n = ft.e * ft.m
    lower, lower_inv = unipotent_pair(rng, n, True)
    upper, upper_inv = unipotent_pair(rng, n, False)
    g, g_inv = lower * upper, upper_inv * lower_inv
    a = ft.realization()
    return ft, FormalConnection(g * a * g_inv - g.tau() * g_inv)


@st.composite
def regular_connections(draw):
    """(formal type, connection): a regular formal type over Q or Q(i)
    of a shape in SPLIT_SHAPES, realized and gauged by
    :func:`gauged_realization` from a drawn seed."""
    field = draw(st.sampled_from([Q, QI]))
    e, m, r = draw(st.sampled_from(SPLIT_SHAPES))
    leads = draw(st.lists(nonzero_scalars(field) if r else scalars(field),
                          min_size=m, max_size=m))
    for i, a in enumerate(leads):
        for b in leads[:i]:
            assume(not congruent_mod_z(a, b) if r == 0 else a ** e != b ** e)
    rows = sorted(([a] + [draw(scalars(field)) for _ in range(r)] for a in leads),
                  key=lambda row: sort_key(row[0]))
    ft = FormalType(TorusData(e, m), r, rows, field)
    return gauged_realization(ft, random.Random(draw(st.integers(0, 2 ** 32 - 1))))


def ramified_shape_examples(test):
    """One explicit example for each SPLIT_SHAPES entry with e > 1 at
    depth 1 or 2, over Q and over Q(i): the derandomized draws depend on
    the test's text and may miss these shapes.  Leads are nonzero with
    distinct e-th powers, drawn from a seed per case."""
    for field in (Q, QI):
        for e, m, r in SPLIT_SHAPES:
            if e == 1 or r not in (1, 2):
                continue
            rng = random.Random(100 * e + 10 * m + r)
            leads = []
            while len(leads) < m:
                a = field.from_coords([Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                                       for _ in range(field.degree)])
                if a != 0 and all(a ** e != b ** e for b in leads):
                    leads.append(a)
            rows = sorted(([a] + [field.from_rational(rng.randint(-2, 2)) for _ in range(r)]
                           for a in leads), key=lambda row: sort_key(row[0]))
            test = example(gauged_realization(FormalType(TorusData(e, m), r, rows, field),
                                              rng))(test)
    return test


# a fixed seed: derandomized draws would follow the test's text
@seed(44110)
@settings(max_examples=25, deadline=None)
@given(regular_connections())
@ramified_shape_examples
def test_constant_split_matches_hensel_split(case):
    """On random regular connections, the split of the reduced
    fundamental stratum is a constant g (order-0 entries, exact) that
    makes Ad(g^-1)(beta) block diagonal modulo P^(1-r), and
    diagonalize gives the formal type and toral representative that it
    gives with the Hensel split of ``helpers.ref_hensel_split`` (taken
    once at positive depth)."""
    ft, conn = case
    digits = ft.depth + 2
    new = diagonalize(conn, digits)
    ref, hensel_splits = ref_split_diagonalize(conn, digits)
    assert hensel_splits == (1 if ft.depth else 0)
    assert new.formal_type.to_json() == ref.formal_type.to_json()
    assert new.A_rep.to_json() == ref.A_rep.to_json()
    s = reduce_stratum(fundamental_stratum(conn)[2])
    g, parts = split_stratum(s, ft.field)
    assert all(x.prec is INF and set(x.coeffs) <= {0} for row in g.rows for x in row)
    g0 = [[x.coeff(0) for x in row] for row in g.rows]
    conj = LaurentMatrix.from_scalar_matrix(kinverse(g0)) * s.beta * g
    assert off_block_filtration_ok(s.ctx, conj, [part.slots for part in parts], s.r)
