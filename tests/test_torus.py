"""Tame corestriction and the graded ad-equation solver."""

import math
from fractions import Fraction

import pytest

from formalconn.errors import NotRegular, PrecisionError
from formalconn.matrices import LaurentMatrix, pairing
from formalconn.parahoric import filtration_degree, in_filtration
from formalconn.series import INF, LaurentScalar, OneForm
from formalconn.scalars import get_field, sort_key
from formalconn.torus import (ToralElement, TorusData, delta_kernel_dimension,
                              graded_ad_image_solve, graded_ad_solve, regular_depth,
                              tame_corestriction)

from helpers import LS, lmat, random_matrix, seeded, varpi_eps

NU = OneForm.dt_over_t()


def random_toral(rng, torus, lo=-2, hi=3):
    blocks = []
    for _ in range(torus.m):
        blk = {}
        for d in range(lo, hi):
            c = rng.randint(-3, 3)
            if c:
                blk[d] = Fraction(c, rng.randint(1, 2))
        blocks.append(blk)
    return ToralElement(torus, blocks)


def test_toral_coeff_beyond_its_window_reports_the_window_needed():
    x = ToralElement(TorusData(2, 2), [{-1: Fraction(1), 2: Fraction(3)}, {}], prec=3)
    assert x.coeff(0, 2) == 3 and x.coeff(1, 2) == 0
    with pytest.raises(PrecisionError) as info:
        x.coeff(1, 4)
    assert info.value.needed == 5
    # the window that suffices: a copy known below degree 5 answers
    assert ToralElement(x.torus, x.coeffs, prec=5).coeff(1, 4) == 0


def test_identity_on_cartan():
    rng = seeded(3)
    for e, m in ((1, 2), (2, 1), (2, 2), (3, 1)):
        torus = TorusData(e, m)
        z = random_toral(rng, torus)
        assert tame_corestriction(z.realization(), torus, NU).agrees(z)


def test_vanishes_off_diagonal_blocks():
    rng = seeded(5)
    torus = TorusData(2, 2)
    x = random_matrix(rng, 4, lo=-2, hi=3)
    # strip the diagonal blocks
    rows = [[x.rows[u][v] if (u // 2) != (v // 2) else LaurentScalar.zero()
             for v in range(4)] for u in range(4)]
    off = LaurentMatrix(rows)
    assert tame_corestriction(off, torus, NU).is_zero()


def test_single_offdiagonal_entry_pure_block():
    # X = E_01 in gl_2 with the pure torus e=2: pi(X) = (1/2) varpi_E
    torus = TorusData(2, 1)
    x = lmat([[[], [(0, 1)]], [[], []]])
    pi = tame_corestriction(x, torus, NU)
    assert pi.coeffs[0] == {1: Fraction(1, 2)}


def test_filtration_preserved():
    rng = seeded(7)
    torus = TorusData(2, 2)
    ctx = torus.context()
    for _ in range(15):
        x = random_matrix(rng, 4, lo=-2, hi=3)
        d = filtration_degree(x, ctx)
        pi = tame_corestriction(x, torus, NU)
        if not pi.is_zero():
            assert filtration_degree(pi.realization(), ctx) >= d


def test_pairing_against_cartan():
    rng = seeded(11)
    for e, m in ((2, 1), (2, 2), (1, 3), (3, 1)):
        torus = TorusData(e, m)
        for _ in range(10):
            x = random_matrix(rng, torus.n, lo=-2, hi=3)
            z = random_toral(rng, torus, lo=-2, hi=3)
            lhs = pairing(z.realization(), x, NU)
            rhs = pairing(z.realization(),
                          tame_corestriction(x, torus, NU).realization(), NU)
            assert lhs == rhs


def test_commutes_with_block_permutation_and_monomials():
    rng = seeded(13)
    torus = TorusData(2, 2)
    n = 4
    x = random_matrix(rng, n, lo=-2, hi=3)
    # block swap
    perm = [2, 3, 0, 1]
    pmat = LaurentMatrix([[LaurentScalar.one() if perm[i] == j else LaurentScalar.zero()
                           for j in range(n)] for i in range(n)])
    lhs = tame_corestriction(pmat * x * pmat.inverse(), torus, NU).realization()
    rhs = pmat * tame_corestriction(x, torus, NU).realization() * pmat.inverse()
    assert lhs.agrees(rhs)
    # per-block varpi-monomial conjugation
    w = varpi_eps(torus, 1, 0) + varpi_eps(torus, 0, 1)
    lhs2 = tame_corestriction(w * x * w.inverse(), torus, NU).realization()
    rhs2 = w * tame_corestriction(x, torus, NU).realization() * w.inverse()
    assert lhs2.agrees(rhs2)


def test_graded_ad_solve_cartan_target_is_zero():
    torus = TorusData(2, 2)
    xi = ToralElement(torus, [{-1: Fraction(1)}, {-1: Fraction(2)}])
    y = ToralElement(torus, [{1: Fraction(3)}, {2: Fraction(1)}]).realization()
    x = graded_ad_solve(xi, y)
    assert x.is_zero()


def test_graded_ad_solve_cyclic_difference_system():
    # n=2 pure: xi = varpi^-1, Y = diag(y0, -y0) varpi^(l-1)
    torus = TorusData(2, 1)
    ctx = torus.context()
    xi = ToralElement(torus, [{-1: Fraction(1)}])
    ell = 2
    y0 = Fraction(3)
    w = ctx.varpi_power(ell - 1)
    d = LaurentMatrix([[LaurentScalar.from_scalar(y0), LaurentScalar.zero()],
                       [LaurentScalar.zero(), LaurentScalar.from_scalar(-y0)]])
    y = d * w
    x = graded_ad_solve(xi, y)
    # solution: diag(x0, x0 - y0) varpi^l with zero Cartan component
    check = x * xi.realization() - xi.realization() * x
    diff = y - tame_corestriction(y, torus, NU).realization() - check
    assert in_filtration(diff, ctx, ell - 1 + 1)
    assert tame_corestriction(x, torus, NU).is_zero()


def test_graded_ad_solve_split_2x2():
    # xi = diag(a, b) t^-1 split, Y = E_01 y t^(l-1): with the
    # ad(X)(xi) = [X, xi] convention of the cyclic-difference formula,
    # X = E_01 y/(b-a) t^l.
    torus = TorusData(1, 2)
    xi = ToralElement(torus, [{-1: Fraction(2)}, {-1: Fraction(5)}])
    y = lmat([[[], [(1, 7)]], [[], []]])
    x = graded_ad_solve(xi, y)
    assert x.rows[0][1].coeff(2) == Fraction(7, 5 - 2)
    assert x.rows[0][0].is_zero() and x.rows[1][0].is_zero() and x.rows[1][1].is_zero()
    ad = x * xi.realization() - xi.realization() * x
    assert ad.agrees(y)


def test_graded_ad_solve_roundtrip_random():
    rng = seeded(17)
    for e, m, r in ((2, 1, 1), (2, 2, 3), (3, 1, 2), (1, 3, 1)):
        if math.gcd(r, e) != 1:
            continue
        torus = TorusData(e, m)
        ctx = torus.context()
        vals = []
        while len(vals) < m:
            c = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            if c not in vals:
                vals.append(c)
        xi = ToralElement(torus, [{-r: v} for v in vals])
        for _ in range(6):
            y = random_matrix(rng, torus.n, lo=0, hi=3)
            d = filtration_degree(y, ctx)
            if d is None or y.is_zero():
                continue
            x = graded_ad_solve(xi, y)
            ad = x * xi.realization() - xi.realization() * x
            resid = y - tame_corestriction(y, torus, NU).realization() - ad
            assert in_filtration(resid, ctx, d + 1)
            if not x.is_zero():
                assert filtration_degree(x, ctx) >= d + r


def test_graded_ad_image_solve_obstruction():
    # solvable exactly when the graded Cartan component vanishes
    torus = TorusData(2, 1)
    ctx = torus.context()
    xi = ToralElement(torus, [{-1: Fraction(1)}])
    pure_cartan = ToralElement(torus, [{2: Fraction(1)}]).realization()
    assert graded_ad_image_solve(xi, pure_cartan, ctx, 2) is None
    killed = lmat([[[(1, 1)], []], [[], [(1, -1)]]])  # trace-free diagonal slot
    assert graded_ad_image_solve(xi, killed, ctx, 2) is not None


def test_graded_ad_solvers_at_the_boundary():
    """A target whose graded level is cut by its window asks for the
    window that decides it, a short window on an entry that holds no
    Cartan slot of the level hides nothing, and the zero target at level
    INF has the zero solution."""
    torus = TorusData(1, 2)
    xi = ToralElement(torus, [{-1: Fraction(2)}, {-1: Fraction(5)}])
    y = LaurentMatrix([[LS([(1, 1)]), LS([], 1)], [LS([]), LS([])]])
    with pytest.raises(PrecisionError) as info:
        graded_ad_solve(xi, y)
    assert info.value.needed == 2
    # level 2 of the 2 x 2 complete chain is the diagonal at t^1, known;
    # the window t^1 of entry (0, 1) starts at level 3
    pure = ToralElement(TorusData(2, 1), [{-1: Fraction(1)}])
    y = LaurentMatrix([[LS([(1, 1)]), LS([], 1)], [LS([]), LS([(1, -1)])]])
    x = graded_ad_solve(pure, y)
    assert x.to_json() == lmat([[[], [(1, (1, 2))]], [[(2, (-1, 2))], []]]).to_json()
    ad = x * pure.realization() - pure.realization() * x
    resid = y - tame_corestriction(y, pure.torus, NU).realization() - ad
    assert in_filtration(resid, pure.torus.context(), 3)
    zero = graded_ad_image_solve(xi, LaurentMatrix.zero(2), torus.context(), INF)
    assert zero.is_zero()


def test_delta_kernel_dimension_formula():
    for n in range(1, 7):
        for r in range(0, n):
            dim = delta_kernel_dimension(n, r)
            assert dim == math.gcd(r, n) if r else n
            assert (dim == 1) == (math.gcd(r, n) == 1)


def test_toral_realizations_commute():
    rng = seeded(19)
    torus = TorusData(3, 2)
    a = random_toral(rng, torus)
    b = random_toral(rng, torus)
    ra, rb = a.realization(), b.realization()
    assert (ra * rb).agrees(rb * ra)


def test_toral_serialization():
    torus = TorusData(2, 2)
    z = ToralElement(torus, [{-1: Fraction(1, 2)}, {0: Fraction(3)}])
    data = z.to_json()
    assert data["e"] == 2 and data["m"] == 2
    assert data["blocks"][0] == [(-1, "1/2")]


def test_equal_leading_coefficients_of_either_type_are_not_distinct():
    """A rational value has one sort key, whether it is held as a
    Fraction or as an element of Q(i)."""
    qi = get_field("Q(i)")
    assert sort_key(Fraction(1)) == sort_key(qi.one())
    assert hash(sort_key(Fraction(1))) == hash(sort_key(qi.one()))
    # keys of one field order as their full coordinate vectors
    i = qi.from_coords([0, 1])
    assert sort_key(1 - i) < sort_key(Fraction(1)) < sort_key(1 + i)
    with pytest.raises(NotRegular):
        regular_depth(ToralElement(TorusData(1, 2), [{-1: Fraction(1)}, {-1: qi.one()}]))


def test_galois_conjugate_leads_are_not_regular():
    """alpha and -alpha at depth 1 on e = 2 have equal squares: the two
    blocks are Galois conjugate, so xi is not regular."""
    xi = ToralElement(TorusData(2, 2), [{-1: Fraction(1)}, {-1: Fraction(-1)}])
    with pytest.raises(NotRegular, match="equal powers"):
        regular_depth(xi)
    # the same leads at depth 0 on e = 1 differ, as they must there
    assert regular_depth(ToralElement(TorusData(1, 2), [{0: Fraction(1)}, {0: Fraction(-1)}])) == 0
