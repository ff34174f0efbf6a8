"""Standard chains, filtrations, graded pieces, duality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalconn.errors import EmptyComposition, GcdViolation, NotInFiltration, PrecisionError
from formalconn.linalg import kinverse, kmatmul
from formalconn.matrices import LaurentMatrix, pairing
from formalconn.parahoric import (GradedEndo, LatticeChain, ParahoricContext,
                                  filtration_degree, graded_component,
                                  graded_monomials, in_filtration, standard_chain)
from formalconn.polys import charpoly_series
from formalconn.scalars import get_field
from formalconn.series import INF, LaurentScalar, OneForm
from formalconn.strata import Stratum
from formalconn.torus import TorusData

from helpers import (LS, krank, lmat, monomial_matrix, random_matrix, ref_is_nilpotent, seeded,
                     varpi_eps)


def test_maximal_parahoric():
    ctx = standard_chain((3,))
    assert ctx.period == 1 and ctx.uniform
    assert ctx.varpi.agrees(LaurentMatrix.identity(3).shift(1))


def test_iwahori_varpi_char_poly():
    # char poly of varpi_I is lambda^n - t
    for n in (2, 3, 4):
        ctx = standard_chain((1,) * n)
        phi = charpoly_series(ctx.varpi)
        expect = [LaurentScalar.t_power(1, Fraction(-1))] + \
            [LaurentScalar.zero()] * (n - 1) + [LaurentScalar.one()]
        assert all(a.agrees(b) for a, b in zip(phi, expect))


def test_block_shift_generator_2_2():
    ctx = standard_chain((2, 2))
    w = ctx.varpi
    # scalar 2x2 blocks in the shift pattern: identity above, t below
    assert w.rows[0][2] == LaurentScalar.one()
    assert w.rows[1][3] == LaurentScalar.one()
    assert w.rows[2][0] == LaurentScalar.t_power(1)
    assert w.rows[3][1] == LaurentScalar.t_power(1)
    assert (w * w).agrees(LaurentMatrix.identity(4).shift(1))


def test_empty_composition_rejected():
    with pytest.raises(EmptyComposition):
        standard_chain(())
    with pytest.raises(EmptyComposition):
        standard_chain((2, 0))


def test_filtration_degree_examples():
    iw = standard_chain((1, 1))
    assert filtration_degree(LaurentMatrix.identity(2).shift(1), iw) == 2
    assert filtration_degree(iw.varpi_power(-3), iw) == -3
    # paper convention: [[0, t^-1],[0, 0]] = t^-1 E_01 has degree -1
    x = lmat([[[], [(-1, 1)]], [[], []]])
    assert filtration_degree(x, iw) == -1


def test_filtration_degree_zero_matrix_and_precision():
    iw = standard_chain((1, 1))
    assert filtration_degree(LaurentMatrix.zero(2), iw) is INF
    blurry = LaurentMatrix.zero(2, prec=2)
    with pytest.raises(PrecisionError):
        filtration_degree(blurry, iw)
    assert filtration_degree(blurry, iw, stop_at=3) is INF


def test_precision_error_names_the_certifying_window():
    iw = standard_chain((1, 1))
    # nothing known: certifying "at least 5" needs every entry known to
    # its least order in P^5
    with pytest.raises(PrecisionError) as err:
        filtration_degree(LaurentMatrix.zero(2, prec=1), iw, stop_at=5)
    assert err.value.needed == max(iw.min_entry_order(u, v, 5)
                                   for u in range(2) for v in range(2))
    # t^3 E_00 is known, the other entries only to t^1: certifying degree
    # 6 needs each short entry known to its least order in P^6
    x = LaurentMatrix([[LS([(3, 1)]), LS([], 1)], [LS([], 1), LS([], 1)]])
    with pytest.raises(PrecisionError) as err:
        filtration_degree(x, iw)
    assert err.value.needed == max(iw.min_entry_order(u, v, 6)
                                   for u, v in ((0, 1), (1, 0), (1, 1)))
    assert err.value.short_by == max(iw.min_entry_order(u, v, 6) - 1
                                     for u, v in ((0, 1), (1, 0), (1, 1)))
    widened = LaurentMatrix([[LS([(3, 1)]), LS([], err.value.needed)],
                             [LS([], err.value.needed), LS([], err.value.needed)]])
    assert filtration_degree(widened, iw) == 6


def test_in_filtration_decided_by_a_known_coefficient_in_any_entry():
    mx = standard_chain((2,))
    blurry, known, zero = LS([], -3), LS([(-2, 1)]), LS([])
    for row in ([blurry, known], [known, blurry]):
        # the known t^-2 puts x outside P^0 and P^-1, whatever the t^-3 window
        x = LaurentMatrix([row, [zero, zero]])
        assert in_filtration(x, mx, 0) is False
        with pytest.raises(GcdViolation, match="does not lie in P"):
            Stratum(mx, 1, x)
    # no coefficient decides P^0 and a window stops short of it: the error
    # is the one filtration_degree raises
    x = LaurentMatrix([[blurry, LS([(0, 1)])], [zero, zero]])
    with pytest.raises(PrecisionError) as expected:
        filtration_degree(x, mx)
    with pytest.raises(PrecisionError) as err:
        in_filtration(x, mx, 0)
    assert str(err.value) == str(expected.value) == \
        "filtration degree undetermined: known bound -3 < candidate 0"
    assert (err.value.needed, err.value.short_by) == (expected.value.needed,
                                                       expected.value.short_by) == (0, 3)


def test_varpi_generates():
    rng = seeded(5)
    for blocks in ((1, 1), (1, 1, 1), (2, 2)):
        ctx = standard_chain(blocks)
        for _ in range(10):
            x = random_matrix(rng, ctx.n)
            if x.is_zero():
                continue
            d = filtration_degree(x, ctx)
            assert filtration_degree(ctx.varpi * x, ctx) == d + 1


def test_graded_component_examples():
    iw = standard_chain((1, 1))
    # varpi at r=1: the identity map between the two lines, each way
    g = graded_component(iw.varpi, iw, 1)
    assert g.pattern == [[0, 1], [1, 0]]
    # element of P^(r+1) has zero graded image at r
    assert graded_component(iw.varpi_power(2), iw, 1).is_zero()
    # constant diagonal at r=0 on the Iwahori: the two lines
    d = lmat([[[(0, 5)], []], [[], [(0, 7)]]])
    assert graded_component(d, iw, 0).pattern == [[5, 0], [0, 7]]


def test_graded_component_requires_membership():
    iw = standard_chain((1, 1))
    with pytest.raises(NotInFiltration):
        graded_component(iw.varpi_power(-1), iw, 0)


def test_graded_multiplicativity():
    rng = seeded(17)
    for blocks in ((1, 1), (2, 1), (1, 1, 1)):
        ctx = standard_chain(blocks)
        for _ in range(8):
            x = random_matrix(rng, ctx.n, lo=0, hi=3)
            y = random_matrix(rng, ctx.n, lo=0, hi=3)
            dx = filtration_degree(x, ctx)
            dy = filtration_degree(y, ctx)
            if dx is INF or dy is INF:
                continue
            gx = graded_component(x, ctx, dx)
            gy = graded_component(y, ctx, dy)
            gxy = graded_component(x * y, ctx, dx + dy)
            assert gx.compose(gy).pattern == gxy.pattern


def test_duality_orthogonality_and_nondegeneracy():
    # (P^s)^perp = P^(1-s) at ord(nu) = -1: the pairing vanishes on
    # P^s x P^(1-s), and the graded pairing of levels s and -s is
    # nondegenerate.
    nu = OneForm.dt_over_t()
    for n, blocks in ((2, (2,)), (2, (1, 1)), (3, (3,)), (3, (1, 1, 1))):
        ctx = standard_chain(blocks)
        e = ctx.period
        for s in range(-e - 1, e + 2):
            left = graded_monomials(ctx, s)
            perp = graded_monomials(ctx, 1 - s)
            dual = graded_monomials(ctx, -s)
            for a in left:
                for b in perp:
                    assert pairing(monomial_matrix(ctx, *a),
                                   monomial_matrix(ctx, *b), nu) == 0
            gram = [[pairing(monomial_matrix(ctx, *a), monomial_matrix(ctx, *b), nu)
                     for b in dual] for a in left]
            assert len(left) == len(dual)
            assert krank(gram) == len(left)


def test_pairing_ad_invariance():
    rng = seeded(23)
    nu = OneForm.dt_over_t()
    for _ in range(10):
        a = random_matrix(rng, 2, lo=-1, hi=2)
        b = random_matrix(rng, 2, lo=-1, hi=2)
        c = random_matrix(rng, 2, lo=-1, hi=2)
        lhs = pairing(c * a - a * c, b, nu) + pairing(a, c * b - b * c, nu)
        assert lhs == 0


def test_pairing_symmetry_and_block_formula():
    nu = OneForm.dt_over_t()
    rng = seeded(29)
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    assert pairing(a, b, nu) == pairing(b, a, nu)
    # <varpi_E^s eps_i, varpi_E^(-s) eps_j> = e delta_ij
    T = TorusData(2, 2)
    for s in (-3, -1, 0, 2):
        for i in range(2):
            for j in range(2):
                val = pairing(varpi_eps(T, s, i), varpi_eps(T, -s, j), nu)
                assert val == (2 if i == j else 0)
    # scalar case: <a t^-s, b t^s> = a b
    one = standard_chain((1,))
    va = lmat([[[(-4, 3)]]])
    vb = lmat([[[(4, (5, 2))]]])
    assert pairing(va, vb, nu) == Fraction(15, 2)


# -- nilpotency of graded pieces ----------------------------------------------

QI = get_field("Q(i)")
small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _on_support(endo):
    ctx, e = endo.ctx, endo.ctx.period
    return all(c == 0 or (endo.r + ctx.phases[v] - ctx.phases[u]) % e == 0
               for u, row in enumerate(endo.pattern) for v, c in enumerate(row))


@st.composite
def contexts(draw):
    """Grouped and interleaved contexts, their translates (the phases
    shifted by one integer), and contexts whose phases leave some
    classes empty."""
    kind = draw(st.sampled_from(["grouped", "interleaved", "sparse"]))
    if kind == "grouped":
        blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        ctx = standard_chain(blocks)
    elif kind == "interleaved":
        e = draw(st.integers(1, 3))
        ctx = ParahoricContext.interleaved(e, draw(st.integers(1, 6 // e)))
    else:
        n = draw(st.integers(2, 6))
        e = draw(st.integers(2, n))
        blocks = [1] * (e - 1) + [n - e + 1]
        phases = draw(st.lists(st.integers(0, e - 1), min_size=n, max_size=n))
        ctx = ParahoricContext(LatticeChain(n, blocks), phases)
    j = draw(st.integers(-4, 4))
    return ParahoricContext(ctx.chain, [p - j for p in ctx.phases])


@st.composite
def graded_endos(draw):
    """A pattern on the graded support of level r; half of them strictly
    triangular in a random order of the basis (so nilpotent), conjugated
    by a constant matrix that keeps every phase class (so the support)."""
    ctx = draw(contexts())
    n, e = ctx.n, ctx.period
    r = draw(st.integers(-2 * e, 2 * e))
    gaussian = draw(st.booleans())
    nilpotent = draw(st.booleans())
    rank = draw(st.permutations(range(n)))
    pattern = [[Fraction(0)] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if (r + ctx.phases[v] - ctx.phases[u]) % e or (nilpotent and rank[u] >= rank[v]):
                continue
            c = draw(small_rationals)
            if gaussian:
                c = QI.from_coords([c, draw(small_rationals)])
            pattern[u][v] = c
    if nilpotent:
        same_class = [[(ctx.phases[u] - ctx.phases[v]) % e == 0 for v in range(n)]
                      for u in range(n)]
        g = [[Fraction(int(u == v)) + (draw(st.integers(-2, 2)) if same_class[u][v] else 0)
              for v in range(n)] for u in range(n)]
        g_inv = kinverse(g)
        if g_inv is not None:
            pattern = kmatmul(kmatmul(g, pattern), g_inv)
    return GradedEndo(pattern, r, ctx)


@settings(max_examples=300)
@given(graded_endos())
def test_is_nilpotent_matches_power_test(endo):
    assert _on_support(endo)
    assert endo.is_nilpotent() == ref_is_nilpotent(endo.pattern)


def test_nilpotency_cases():
    # gcd(r, e) = 2 on the Iwahori of rank 4: two cycles {0, 2}, {1, 3},
    # each with product 1; zeroing one block of a cycle kills its product
    iw = standard_chain((1, 1, 1, 1))
    pat = graded_component(iw.varpi_power(2), iw, 2).pattern
    assert not GradedEndo(pat, 2, iw).is_nilpotent()
    pat[0][2] = Fraction(0)
    assert not GradedEndo(pat, 2, iw).is_nilpotent()
    pat[1][3] = Fraction(0)
    assert GradedEndo(pat, 2, iw).is_nilpotent()
    # phase class 2 is empty: at r = 1 the only cycle passes through it,
    # at r = 3 each class is its own cycle
    holes = ParahoricContext(LatticeChain(3, (1, 1, 1)), (0, 0, 1))
    shift = [[Fraction(0)] * 3, [Fraction(0)] * 3, [Fraction(1), Fraction(2), Fraction(0)]]
    assert GradedEndo(shift, 1, holes).is_nilpotent()
    diag = [[Fraction(int(u == v)) for v in range(3)] for u in range(3)]
    assert not GradedEndo(diag, 3, holes).is_nilpotent()


def test_library_graded_pieces_lie_on_support():
    rng = seeded(41)
    for blocks in ((1, 1), (2, 1), (1, 1, 1), (1, 2, 1)):
        ctx = standard_chain(blocks)
        for _ in range(6):
            x = random_matrix(rng, ctx.n, lo=-2, hi=2)
            y = random_matrix(rng, ctx.n, lo=-2, hi=2)
            if x.is_zero() or y.is_zero():
                continue
            gx = graded_component(x, ctx, filtration_degree(x, ctx))
            gy = graded_component(y, ctx, filtration_degree(y, ctx))
            assert _on_support(gx) and _on_support(gy) and _on_support(gx.compose(gy))
