"""The steps of diagonalization against the reference steps of ``helpers``.

The library solves each graded level on patterns, writes toral
realizations entry by entry, lifts Hensel factorizations digit by digit,
gauges with two products instead of three and inverts in Q(zeta_m) by
extended Euclid.  Each must agree exactly with the reference -- the same
coefficients and the same windows -- except the gauge action, whose
windows may only grow.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formalconn.connections import FormalConnection, gauge_transform
from formalconn.matrices import LaurentMatrix
from formalconn.parahoric import ParahoricContext, graded_monomials, standard_chain
from formalconn.polys import hensel_lift, kpoly_deg, kpoly_gcd, kpoly_mul
from formalconn.scalars import get_field
from formalconn.series import INF, LaurentScalar
from formalconn.torus import ToralElement, TorusData, graded_level_solve

from helpers import (ref_ext_inverse, ref_gauge_transform, ref_graded_level_solve,
                     ref_hensel_lift, ref_realization)

Q = get_field("Q")
QI = get_field("Q(i)")

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = rationals.filter(bool)


def scalars(field):
    if field is Q:
        return rationals
    return st.builds(lambda a, b: field.from_coords([a, b]), rationals, rationals)


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
def test_graded_level_solve_matches_reference(data):
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
    new = graded_level_solve(lead, target, ctx, level, r, keep=keep, shift=shift)
    ref = ref_graded_level_solve(lead, target, ctx, level, r, keep=keep, shift=shift)
    assert same_matrix(new, ref)


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
    new_g, new_h = hensel_lift(phi, g0, h0, digits)
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
