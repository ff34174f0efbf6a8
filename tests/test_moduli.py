"""Global assembly, moment map, framings, stabilizers, dimensions."""

import math
from fractions import Fraction

import pytest

from formalconn.connections import FormalConnection, gauge_transform
from formalconn.errors import (DuplicatePoints, ParseError, ResidueNonzero,
                               UnsupportedDepth)
from formalconn.formal_types import FormalType
from formalconn.matrices import LaurentMatrix
from formalconn.moduli import (INFINITY, GlobalConfig, PrincipalPart,
                               _binomial_expansion, _geometric_expansion,
                               _geometric_expansion_inf, assemble_global, check_framing,
                               coadjoint_fixes, in_toral_congruence,
                               moment_map, orbit_dimensions,
                               regular_singular_orbit_dimensions)
from formalconn.parahoric import graded_monomials
from formalconn.scalars import get_field
from formalconn.series import LaurentScalar, OneForm
from formalconn.torus import ToralElement, TorusData

from helpers import LS, lmat, monomial_matrix, principal_part_at, seeded

Q = get_field("Q")
Z = LaurentScalar.zero()


def pp_of(point, entries):
    return PrincipalPart(point, lmat(entries))


def test_single_point_assembly():
    pp = pp_of(0, [[[], [(-2, 1)]], [[], []]])
    g = assemble_global(GlobalConfig([(pp, None, None)]))
    assert not g.poly
    assert principal_part_at(g, 0).to_json() == pp.part.to_json()


def test_two_point_partial_fractions():
    r_mat = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(-1)]]
    pp0 = PrincipalPart(0, LaurentMatrix(
        [[LS([(-1, r_mat[i][j])]) for j in range(2)] for i in range(2)]))
    pp1 = PrincipalPart(1, LaurentMatrix(
        [[LS([(-1, -r_mat[i][j])]) for j in range(2)] for i in range(2)]))
    cfg = GlobalConfig([(pp0, None, None), (pp1, None, None)])
    g = assemble_global(cfg)
    assert principal_part_at(g, 0).to_json() == pp0.part.to_json()
    assert principal_part_at(g, 1).to_json() == pp1.part.to_json()
    away = g.local_expansion(Fraction(1, 2), 3)
    assert all(x.is_zero() or x.order >= 0 for row in away.rows for x in row)


def test_residue_violation():
    pp0 = pp_of(0, [[[(-1, 1)], []], [[], []]])
    pp1 = pp_of(1, [[[(-1, 1)], []], [[], []]])
    with pytest.raises(ResidueNonzero) as info:
        assemble_global(GlobalConfig([(pp0, None, None), (pp1, None, None)]))
    assert info.value.total[0][0] == 2


def test_duplicate_points_rejected():
    pp0 = pp_of(0, [[[(-2, 1)]]])
    with pytest.raises(DuplicatePoints):
        GlobalConfig([(pp0, None, None), (pp_of(0, [[[(-3, 1)]]]), None, None)])


def test_positive_degree_rejected():
    with pytest.raises(ParseError):
        pp_of(0, [[[(1, 1)]]])


def test_infinity_chart():
    ppi = pp_of(INFINITY, [[[(-3, 2)], []], [[], [(-1, 1)]]])
    pp0 = pp_of(0, [[[], []], [[], [(-1, -1)]]])
    cfg = GlobalConfig([(pp0, None, None), (ppi, None, None)])
    g = assemble_global(cfg)
    assert principal_part_at(g, INFINITY).to_json() == ppi.part.to_json()
    assert principal_part_at(g, 0).to_json() == pp0.part.to_json()
    # z^1 coefficient present from the w^-3 pole (z^0 slot stays zero)
    assert len(g.poly) == 2
    assert all(c == 0 for row in g.poly[0] for c in row)
    assert g.poly[1][0][0] == -2


def test_local_expansions_in_closed_form():
    # each closed form times (or, for z^k, against) the power of its base
    # gives the expected series on the whole window prec
    def power(base, k):
        out = LaurentScalar.one()
        for _ in range(k):
            out = out * base
        return out

    for c in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(-7, 2)):
        base = LaurentScalar({0: c, 1: Fraction(1)})
        inf_base = LaurentScalar({0: Fraction(1), 1: -c})
        for d in range(5):
            for prec in range(-2, 9):
                assert _binomial_expansion(c, d, prec) == power(base, d).truncate(prec)
                if d == 0:
                    continue
                inf = _geometric_expansion_inf(c, d, prec)
                assert inf.prec == prec
                assert inf * power(inf_base, d) == \
                    LaurentScalar.t_power(d - 2, Fraction(-1)).truncate(prec)
                if c:
                    geo = _geometric_expansion(c, d, prec)
                    assert geo.prec == prec
                    assert geo * power(base, d) == LaurentScalar.one().truncate(prec)


def test_moment_map_values():
    r1 = pp_of(0, [[[(-1, 3)], []], [[], [(-1, -3)]]])
    assert moment_map(GlobalConfig([(r1, None, None)]))[0][0] == 3
    r2 = pp_of(1, [[[(-1, 2)], []], [[], [(-1, 1)]]])
    total = moment_map(GlobalConfig([(r1, None, None), (r2, None, None)]))
    assert total[0][0] == 5 and total[1][1] == -2


def test_assembled_config_has_zero_moment():
    rng = seeded(61)
    n = 2
    mats = []
    total = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(2):
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        mats.append(m)
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, m)]
    mats.append([[-total[i][j] for j in range(n)] for i in range(n)])
    cfg = GlobalConfig([
        (PrincipalPart(k, LaurentMatrix([[LS([(-1, mats[k][i][j])])
                                          for j in range(n)] for i in range(n)])),
         None, None)
        for k in range(3)])
    assert all(c == 0 for row in moment_map(cfg) for c in row)
    assemble_global(cfg)


def test_check_framing_identity_and_leading():
    ft = FormalType(TorusData(1, 2), 2,
                    [[Fraction(1), 0, 0], [Fraction(3), 0, Fraction(1, 2)]], Q)
    conn = FormalConnection(ft.realization())
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert check_framing(eye, conn, ft)
    # conjugated connection is framed by the inverse constant
    g_const = [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]]
    gmat = LaurentMatrix.from_scalar_matrix(g_const)
    moved = gauge_transform(gmat.inverse(), conn)
    assert check_framing(g_const, moved, ft)
    assert not check_framing(eye, moved, ft)
    # scrambling the leading term off the parahoric fails
    bad = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    hmat = LaurentMatrix.from_scalar_matrix(bad) * LaurentMatrix.identity(2).shift(-1)
    broken = gauge_transform(hmat, conn)
    assert not check_framing(eye, broken, ft)


def test_framing_e1_leading_term_form():
    # g.[nabla] = t^-r D_r nu + lower: exactly the compatible framing shape
    ft = FormalType(TorusData(1, 2), 2,
                    [[Fraction(1), 0, 0], [Fraction(3), 0, 0]], Q)
    tail = lmat([[[(-1, 5)], [(-1, 2)]], [[(0, 7)], [(-1, 1)]]])
    conn = FormalConnection(ft.realization() + tail)
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert check_framing(eye, conn, ft)


def test_orbit_dimensions_n1():
    ft = FormalType(TorusData(1, 1), 2, [[Fraction(1), 0, 0]], Q)
    dims = orbit_dimensions(ft, 4)
    assert dims["dim_O"] == 0 and dims["dim_M"] == 0


def test_orbit_dimensions_pure_n2():
    ft = FormalType(TorusData(2, 1), 1, [[Fraction(1), 0]], Q)
    dims = orbit_dimensions(ft, 2)
    assert dims["dim_O"] == 2
    assert dims["raw"]["graded_piece_P"] == 2
    assert dims["dim_M_tilde"] - dims["dim_M"] == 2 * ft.m
    # raw summands cancel: dim_M is truncation independent
    dims2 = orbit_dimensions(ft, 7)
    assert dims2["dim_M"] == dims["dim_M"]
    assert dims2["dim_M_tilde"] == dims["dim_M_tilde"]
    assert dims2["raw"]["dim_TstarG_trunc"] != dims["raw"]["dim_TstarG_trunc"]


def test_orbit_dimensions_difference_is_torus():
    rng = seeded(67)
    for _ in range(20):
        n = rng.randint(1, 4)
        e = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        m = n // e
        r = rng.choice([k for k in range(1, 6) if math.gcd(k, e) == 1])
        coeffs = [[Fraction(j + 1)] + [Fraction(0)] * r for j in range(m)]
        ft = FormalType(TorusData(e, m), r, coeffs, Q)
        dims = orbit_dimensions(ft, r + 1 + rng.randint(0, 3))
        assert dims["dim_M_tilde"] - dims["dim_M"] == 2 * m


def test_orbit_dimensions_depth_zero_branch():
    ft = FormalType(TorusData(1, 2), 0, [[Fraction(0)], [Fraction(1, 2)]], Q)
    with pytest.raises(UnsupportedDepth):
        orbit_dimensions(ft, 3)
    dims = regular_singular_orbit_dimensions(ft)
    assert dims["dim_M"] == 2 and dims["dim_M_tilde"] == 6
    assert dims["dim_M_tilde"] - dims["dim_M"] == 2 * 2


def test_orbit_dimensions_depth_zero_repeated_value_across_types():
    # the same residue eigenvalue held once as a Fraction and once as an
    # element of Q(i) is a repeated eigenvalue
    qi = get_field("Q(i)")
    ft = FormalType(TorusData(1, 2), 0, [[Fraction(1)], [qi.one()]], qi)
    with pytest.raises(UnsupportedDepth, match="repeated residue eigenvalue"):
        regular_singular_orbit_dimensions(ft)


def test_isotropy_equivalence_samples():
    rng = seeded(71)
    nu = OneForm.dt_over_t()
    for e, m, r in ((2, 1, 3), (1, 2, 2), (1, 3, 4), (3, 1, 2)):
        torus = TorusData(e, m)
        ctx = torus.context()
        n = torus.n
        vals = [Fraction(j + 1) for j in range(m)]
        a_nu = ToralElement(torus, [{-r: v} for v in vals]).realization()
        for _ in range(12):
            i = rng.randint(0, r // 2)
            j = r + 1 - i
            if rng.random() < 0.5:
                p = _toral_times_congruence(rng, torus, ctx, i, j)
                assert coadjoint_fixes(p, a_nu, ctx, i)
                assert in_toral_congruence(p, torus, ctx, i, j)
            else:
                p = _generic_congruence(rng, ctx, max(i, 0))
                assert coadjoint_fixes(p, a_nu, ctx, i) == \
                    in_toral_congruence(p, torus, ctx, i, j)


def _toral_times_congruence(rng, torus, ctx, i, j):
    blocks = []
    for _ in range(torus.m):
        blk = {}
        if i == 0:
            blk[0] = Fraction(rng.randint(1, 3))
        for d in range(max(i, 1), j + 2):
            c = rng.randint(-2, 2)
            if c:
                blk[d] = Fraction(c)
        blocks.append(blk)
    s = ToralElement(torus, blocks).realization()
    if i > 0:
        s = LaurentMatrix.identity(torus.n) + s
    return s * _generic_congruence(rng, ctx, j)


def _generic_congruence(rng, ctx, level):
    n = ctx.n
    out = LaurentMatrix.identity(n)
    for lvl in range(max(level, 1), level + 5):
        for (u, v, o) in graded_monomials(ctx, lvl):
            c = rng.randint(-2, 2)
            if c:
                out = out + monomial_matrix(ctx, u, v, o, Fraction(c))
    if level == 0:
        diag = LaurentMatrix.identity(n)
        for u in range(n):
            diag.rows[u][u] = LS([(0, rng.randint(1, 3))])
        out = diag * out
    return out


def test_freeness_sample():
    # no nonidentity constant fixes a framed configuration datum
    rng = seeded(73)
    ft = FormalType(TorusData(2, 1), 3, [[Fraction(1), 0, Fraction(2), 0]], Q)
    a_nu = ft.realization()
    ctx = ft.torus.context()
    nu = OneForm.dt_over_t()
    for _ in range(25):
        g = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        if g == [[1, 0], [0, 1]]:
            continue
        gm = LaurentMatrix.from_scalar_matrix(g)
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if det == 0:
            continue
        moved = gm * a_nu * gm.inverse()
        assert not moved.agrees(a_nu) or g == [[1, 0], [0, 1]]


def test_config_serialization_roundtrip():
    ft = FormalType(TorusData(1, 2), 1, [[Fraction(1), 0], [Fraction(2), 0]], Q)
    pp = pp_of(0, [[[(-2, 1)], []], [[], [(-2, 2)]]])
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    cfg = GlobalConfig([(pp, ft, eye)])
    data = cfg.to_json()
    back = GlobalConfig.from_json(data, Q)
    assert back.entries[0][0].part.to_json() == pp.part.to_json()
    assert back.entries[0][1] == ft
    assert back.entries[0][2] == eye
