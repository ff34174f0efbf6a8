"""Connections: gauge action, containment, slope against the Katz
oracle, splitting, diagonalization."""

import importlib
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalconn.connections import (FormalConnection, contained_stratum,
                                    diagonalize, fundamental_stratum,
                                    gauge_transform, slope, split_connection)
from formalconn import connections, parahoric, strata, torus
from formalconn.errors import (NotInFiltration, NotRegular, NotSplit, PrecisionError,
                               SingularGauge)
from formalconn.formal_types import FormalType
from formalconn.matrices import LaurentMatrix, pairing
from formalconn.parahoric import fildeg_certified, filtration_degree, in_filtration, standard_chain
from formalconn.scalars import get_field, sort_key
from formalconn.series import INF, LaurentScalar, OneForm
from formalconn.strata import Stratum, infer_field, is_fundamental, is_regular
from formalconn.torus import ToralElement, TorusData

from helpers import (LS, katz_slope_oracle, lmat, random_matrix, random_regular_type,
                     random_unit_matrix, ref_split_connection, seeded, sorted_blocks)

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def witten():
    m = lmat([[[], [(-3, 1)]], [[(-2, 1)], []]])
    return FormalConnection.from_dt_matrix(m, OneForm.dt())


def test_gauge_identity():
    c = FormalConnection(lmat([[[(-2, 1)], [(0, 3)]], [[], [(-1, 1)]]]))
    g = LaurentMatrix.identity(2)
    assert gauge_transform(g, c).matrix.agrees(c.matrix)


def test_gauge_constant_is_conjugation():
    rng = seeded(3)
    c = FormalConnection(random_matrix(rng, 2, lo=-2, hi=2))
    g = lmat([[[(0, 1)], [(0, 2)]], [[(0, 1)], [(0, 3)]]])
    out = gauge_transform(g, c)
    assert out.matrix.agrees(g * c.matrix * g.inverse())


def test_gauge_scalar_t():
    # n = 1, g = t, [nabla_tau] = a/t: result a/t - 1
    c = FormalConnection(lmat([[[(-1, 5)]]]))
    g = lmat([[[(1, 1)]]])
    out = gauge_transform(g, c)
    assert out.matrix.rows[0][0].agrees(LS([(-1, 5), (0, -1)]))


def test_gauge_group_action():
    rng = seeded(5)
    c = FormalConnection(random_matrix(rng, 2, lo=-2, hi=2))
    g = random_unit_matrix(rng, 2) + lmat([[[(0, 1)], []], [[], []]])
    h = random_unit_matrix(rng, 2)
    lhs = gauge_transform(g * h, c)
    rhs = gauge_transform(g, gauge_transform(h, c))
    assert lhs.matrix.agrees(rhs.matrix)


def test_gauge_singular_raises():
    c = FormalConnection(lmat([[[(-1, 1)], []], [[], [(-1, 1)]]]))
    g = lmat([[[(0, 1)], [(0, 1)]], [[(0, 1)], [(0, 1)]]])
    with pytest.raises(SingularGauge):
        gauge_transform(g, c)


def test_contained_stratum_examples():
    # t^-r times regular constant diagonal, maximal parahoric
    mx = standard_chain((2,))
    d = FormalConnection(lmat([[[(-3, 1)], []], [[], [(-3, 4)]]]))
    s = contained_stratum(d, mx)
    assert s.r == 3 and s.ctx.period == 1
    # regular singular: r = 0
    rs = FormalConnection(lmat([[[(0, 1)], [(1, 2)]], [[], []]]))
    assert contained_stratum(rs, mx).r == 0
    # Witten with the Iwahori: r = 3, representative varpi^-3
    iw = standard_chain((1, 1))
    sw = contained_stratum(witten(), iw)
    assert sw.r == 3
    assert sw.graded_rep().pattern == \
        contained_stratum(FormalConnection(iw.varpi_power(-3)), iw).graded_rep().pattern


def test_slope_examples():
    assert slope(witten()) == Fraction(3, 2)
    rs = FormalConnection(lmat([[[(0, (1, 2))], [(2, 1)]], [[(1, 3)], []]]))
    assert slope(rs) == 0
    d5 = FormalConnection(lmat([[[(-5, 1)], []], [[], [(-5, 3)]]]))
    assert slope(d5) == 5
    assert slope(FormalConnection(LaurentMatrix.zero(2))) == 0


def test_slope_matches_katz_oracle_spot():
    cases = [
        witten(),
        FormalConnection(lmat([[[], [(-2, 1)]], [[(0, 1)], []]])),
        FormalConnection(lmat([[[(-1, 1)], [(-2, 1)]], [[(0, 1)], [(-1, -1)]]])),
        FormalConnection(lmat([[[], [(-3, 1)], []],
                               [[], [], [(-3, 1)]],
                               [[(-2, 1)], [], []]])),
        FormalConnection(lmat([[[(-4, 2)], [(0, 1)]], [[(1, 1)], [(-1, 1)]]])),
    ]
    for c in cases:
        assert slope(c) == katz_slope_oracle(c)


def test_fundamental_stratum_is_contained_and_fundamental():
    h, cur, s = fundamental_stratum(witten())
    assert is_fundamental(s)
    assert filtration_degree(cur.matrix, s.ctx) == -s.r
    # the stratum representative is the gauged matrix itself
    assert s.beta is cur.matrix


def test_tau_filtration_and_parahoric_derivative():
    # tau preserves filtration degrees; (tau p) p^-1 in P^1 for p in P
    rng = seeded(11)
    for blocks in ((1, 1), (2,), (1, 1, 1)):
        ctx = standard_chain(blocks)
        conn = FormalConnection(LaurentMatrix.zero(ctx.n))
        for _ in range(6):
            x = random_matrix(rng, ctx.n, lo=-2, hi=3)
            if x.is_zero():
                continue
            tx = conn.tau_of_matrix(x)
            if not tx.is_zero():
                assert filtration_degree(tx, ctx) >= filtration_degree(x, ctx)
            p = random_unit_matrix(rng, ctx.n)
            tp = conn.tau_of_matrix(p) * p.inverse()
            assert in_filtration(tp, ctx, 1)


def test_gauge_coadjoint_agreement_on_parahoric():
    # for p in P the gauge and adjoint actions differ by P^1 = P^perp
    rng = seeded(13)
    ctx = standard_chain((1, 1))
    conn = FormalConnection(ctx.varpi_power(-3))
    for _ in range(6):
        p = random_unit_matrix(rng, 2)
        moved = gauge_transform(p, conn)
        diff = moved.matrix - p * conn.matrix * p.inverse()
        assert in_filtration(diff, ctx, 1)


def test_split_connection_contract():
    # diag leading term with off-diagonal perturbation
    base = lmat([[[(-1, 1)], [(1, 2)]], [[(0, 3)], [(-1, 2)]]])
    conn = FormalConnection(base)
    ctx = standard_chain((2,))
    digits = 7
    p, out = split_connection(conn, ctx, 1, [[0], [1]], digits=digits)
    off = lmat([[[], []], [[], []]])
    off.rows[0][1] = out.matrix.rows[0][1]
    off.rows[1][0] = out.matrix.rows[1][0]
    assert in_filtration(off, ctx, 1 - 1 + digits)


def test_split_connection_refuses_leading_term_across_parts():
    # the leading term (t^-1 level on the maximal chain, r = 1) couples
    # the two parts, so the input contains no stratum split along them
    conn = FormalConnection(lmat([[[(-1, 1)], [(-1, 1)]], [[], [(-1, 2)]]]))
    with pytest.raises(NotSplit):
        split_connection(conn, standard_chain((2,)), 1, [[0], [1]], digits=4)


def test_split_connection_refuses_matrix_outside_the_stratum_filtration():
    # a t^-2 entry on the maximal chain lies below P^-1, so the input
    # contains no stratum of depth r = 1
    conn = FormalConnection(lmat([[[(-2, 1)], []], [[], [(-1, 2)]]]))
    with pytest.raises(NotInFiltration, match="P\\^-1$"):
        split_connection(conn, standard_chain((2,)), 1, [[0], [1]], digits=4)


def test_split_connection_short_window_raises_before_filtration():
    # the same matrix known only to t^2: the window short of the target
    # level 4 is named first, before membership in P^-1 is decided
    conn = FormalConnection(lmat([[[(-2, 1)], []], [[], [(-1, 2)]]], prec=2))
    with pytest.raises(PrecisionError, match="below level 4, known below 2$"):
        split_connection(conn, standard_chain((2,)), 1, [[0], [1]], digits=4)


def test_level_loops_read_their_lead_from_levels(monkeypatch):
    """The level loops take their lead from the level form and each
    part's leading coefficient from the regularity report: a seeded
    split diagonalization with e = 2 and m = 3 pure parts calls
    pure_leading once per part, in is_regular, and graded_component
    never inside _pure_block_reduce or split_connection."""
    rng = seeded(5)
    ft = random_regular_type(rng, 6, 2, 3)
    conn = gauge_transform(random_unit_matrix(rng, 6), FormalConnection(ft.realization()))
    inside, calls = [False], {"pure_leading": 0, "graded_component": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += inside[0] if name == "graded_component" else 1
            return fn(*args)
        return wrapped

    def flagged(fn):
        def wrapped(*args, **kwargs):
            inside[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = False
        return wrapped

    for module in (connections, parahoric, strata, torus):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for name in ("_pure_block_reduce", "split_connection"):
        monkeypatch.setattr(connections, name, flagged(getattr(connections, name)))
    assert connections.diagonalize(conn, digits=4).formal_type == ft
    assert calls["pure_leading"] == 3
    _, cur, strat = fundamental_stratum(conn)
    report = is_regular(Stratum(strat.ctx, strat.r, cur.matrix, cur.nu))
    assert len(report.parts) == 3
    connections.split_connection(FormalConnection(report.conjugate, cur.nu), strat.ctx, strat.r,
                                 [part.slots for part in report.parts], digits=4)
    assert calls["graded_component"] == 0


def test_split_connection_depth_zero_resonance_free():
    base = lmat([[[(0, 0)], [(1, 1)]], [[], [(0, (1, 2))]]])
    conn = FormalConnection(base)
    ctx = standard_chain((2,))
    p, out = split_connection(conn, ctx, 0, [[0], [1]], digits=6)
    assert out.matrix.rows[0][1].is_zero() or out.matrix.rows[0][1].order > 6


def test_split_connection_matches_reference_on_corpora(monkeypatch):
    """Every split of the seed-40404, 7 and 101 diagonalize corpora of
    the benchmark, against the reference loop: each item's regularity
    report is built as diagonalize builds it, and split_connection takes
    the report's conjugate and part slots, clearing through level
    digits + 1.  It gives the same exact gauge p as the reference, and a
    split connection known below the target level that agrees with the
    reference's wherever both know a coefficient."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    wl_diagonalize = importlib.import_module("wl_diagonalize")
    calls = 0
    for seed in (40404, 7, 101):
        workload = wl_diagonalize.Workload(seed, None)
        for item in workload.items:
            ft, conn = item.payload
            digits = ft.depth + 3
            _, cur, strat = fundamental_stratum(conn.standardized())
            r, ctx = strat.r, strat.ctx
            mat = cur.matrix.truncate(-(-(digits + ctx.period) // ctx.period))
            report = is_regular(Stratum(ctx, r, mat, cur.nu), infer_field(mat))
            if not report.parts:
                continue
            split = FormalConnection(report.conjugate, cur.nu)
            slots = [part.slots for part in report.parts]
            p, out = split_connection(split, ctx, r, slots, digits=digits + r)
            ref_p, ref_out = ref_split_connection(split, ctx, r, slots, digits=digits + r)
            assert p.to_json() == ref_p.to_json() and repr(p) == repr(ref_p)
            assert fildeg_certified(out.matrix, ctx)[1] >= 1 + digits
            assert out.matrix.agrees(ref_out.matrix)
            calls += 1
    assert calls >= 60


def test_diagonalize_toral_input_unchanged():
    q = get_field("Q")
    ft = FormalType(TorusData(2, 1), 3, [[Fraction(1), 0, Fraction(2), 0]], q)
    res = diagonalize(FormalConnection(ft.realization()), digits=6)
    assert res.formal_type == ft
    assert res.gauge.agrees(LaurentMatrix.identity(2))


def test_diagonalize_witten():
    res = diagonalize(witten(), digits=6)
    ft = res.formal_type
    assert ft.e == 2 and ft.m == 1 and ft.depth == 3
    assert ft.coeffs[0][0] == 1
    # gauge carries the matrix onto the Cartan representative
    moved = gauge_transform(res.gauge, witten().standardized())
    assert moved.matrix.agrees(res.A_rep.realization(), through=3)


def test_diagonalize_uniqueness_mod_t1():
    rng = seeded(17)
    q = get_field("Q")
    ft = FormalType(TorusData(1, 2), 2,
                    [[Fraction(1), Fraction(4), 0], [Fraction(3), 0, Fraction(2)]], q)
    base = FormalConnection(ft.realization())
    for _ in range(3):
        p = random_unit_matrix(rng, 2)
        res = diagonalize(gauge_transform(p, base), digits=6)
        assert res.formal_type == sorted_blocks(ft)


def test_diagonalize_regular_singular():
    base = lmat([[[(0, (1, 2)), (1, 3)], [(1, 1), (2, 2)]],
                 [[(2, 1)], [(0, (1, 5)), (1, 1)]]])
    res = diagonalize(FormalConnection(base), digits=8)
    ft = res.formal_type
    assert ft.depth == 0 and ft.e == 1 and ft.m == 2
    assert sorted(map(str, ft.leading())) == ["1/2", "1/5"]


@pytest.mark.parametrize("residues", [
    [Fraction(1, 3), Fraction(-1, 2)],
    [Fraction(1, 3), Fraction(-1, 2), Fraction(5, 4)],
])
def test_diagonalize_depth_zero_gauge_reaches_digits(residues):
    # the returned gauge carries a unit-gauged depth-0 input onto the
    # Cartan representative beyond the requested digits
    n = len(residues)
    ft = FormalType(TorusData(1, n), 0, [[c] for c in residues], get_field("Q"))
    conn = gauge_transform(random_unit_matrix(seeded(19), n),
                           FormalConnection(ft.realization()))
    digits = 4
    res = diagonalize(conn, digits=digits)
    assert res.formal_type == sorted_blocks(ft)
    resid = gauge_transform(res.gauge, conn).matrix - res.A_rep.realization()
    deg = filtration_degree(resid, standard_chain((n,)), stop_at=digits + 1)
    assert deg > digits


def test_diagonalize_depth_zero_short_window_raises():
    # depth zero takes the split path, so a window that ends before
    # level digits + 1 raises instead of returning fewer digits
    ft = FormalType(TorusData(1, 2), 0, [[Fraction(1, 3)], [Fraction(-1, 2)]],
                    get_field("Q"))
    conn = gauge_transform(random_unit_matrix(seeded(19), 2),
                           FormalConnection(ft.realization()))
    with pytest.raises(PrecisionError) as exc:
        diagonalize(FormalConnection(conn.matrix.truncate(2)), digits=4)
    assert exc.value.needed is not None and exc.value.needed > 2
    rank_one = LaurentMatrix([[LaurentScalar({0: Fraction(1, 2)}, 1)]])
    with pytest.raises(PrecisionError) as exc:
        diagonalize(FormalConnection(rank_one), digits=4)
    assert exc.value.needed is not None and exc.value.needed > 1
    with pytest.raises(PrecisionError):
        diagonalize(FormalConnection(LaurentMatrix([[LaurentScalar.zero(prec=0)]])),
                    digits=4)


def test_diagonalize_zero_connection():
    res = diagonalize(FormalConnection(LaurentMatrix.zero(1)), digits=4)
    assert res.formal_type.depth == 0
    with pytest.raises(NotRegular):
        diagonalize(FormalConnection(LaurentMatrix.zero(2)), digits=4)


def test_diagonalize_resonant_rejected():
    base = lmat([[[(0, 1)], [(1, 1)]], [[], [(0, 0)]]])
    with pytest.raises(NotRegular):
        diagonalize(FormalConnection(base), digits=4)


def test_pure_block_reduce_names_an_unsolvable_level():
    """At depth zero, against the residue diag(0, 1), the graded equation
    for X_01 at level 1 is (1 - 0 - 1) x = 1: resonant.  The level loop
    raises NotRegular naming the level, not a TypeError from the
    solver's None."""
    mat = lmat([[[], [(1, 1)]], [[], [(0, 1)]]])
    with pytest.raises(NotRegular, match="at level 1$"):
        connections._pure_block_reduce(mat, standard_chain([2]), 0, [[0], [1]],
                                       [Fraction(0), Fraction(1)], get_field("Q"), 2)


@pytest.mark.parametrize("seed, n, e, r", [(40, 4, 4, 5), (41, 4, 1, 1)])
def test_diagonalize_eliminates_once_per_level_class(monkeypatch, seed, n, e, r):
    """The level loop eliminates each level class once (its keep is None
    and r > 0, so the class is v mod e) and solves every level of the
    class with it: at most e eliminations per diagonalize, counted at
    linalg.solve_form as torus calls it."""
    calls = []
    build = torus.solve_form

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(torus, "solve_form", counted)
    rng = seeded(seed)
    ft = random_regular_type(rng, n, e, r)
    conn = gauge_transform(random_unit_matrix(rng, n, depth=2), FormalConnection(ft.realization()))
    res = diagonalize(conn, digits=r + 3)
    assert res.formal_type.coeffs == ft.coeffs
    assert 0 < len(calls) <= e


def test_one_form_rescaling():
    # invariance of slope and formal data under a change of one-form
    w = witten()
    w2 = w.with_one_form(OneForm.dt_over_t_pow(2))
    assert slope(w2) == Fraction(3, 2)
    back = w2.standardized()
    assert back.matrix.agrees(w.standardized().matrix)


def test_connection_serialization_roundtrip():
    w = witten()
    data = w.to_json()
    back = FormalConnection.from_json(data)
    assert back.standardized().matrix.agrees(w.standardized().matrix)


def test_fundamental_stratum_rank_one_zero_window():
    # zero only to its window: the degree is undetermined, as in rank two
    for n in (1, 2):
        zero = LaurentMatrix([[LaurentScalar.zero(prec=0)] * n for _ in range(n)])
        with pytest.raises(PrecisionError):
            fundamental_stratum(FormalConnection(zero))


def test_slope_of_zero_to_window_raises():
    # a matrix zero only to its window certifies no slope; an exact zero
    # matrix is regular singular
    for z, n in ((LaurentScalar.zero(prec=-3), 2), (LaurentScalar.zero(prec=0), 1)):
        with pytest.raises(PrecisionError):
            slope(FormalConnection(LaurentMatrix([[z] * n for _ in range(n)])))
    for n in (1, 3):
        assert slope(FormalConnection(LaurentMatrix.zero(n))) == 0


def _diagonalizes(conn, res, digits):
    resid = gauge_transform(res.gauge, conn).matrix - res.A_rep.realization()
    ctx = res.formal_type.torus.context()
    return filtration_degree(resid, ctx, stop_at=digits + 1) > digits


def test_diagonalize_reduces_split_blocks_without_retesting(monkeypatch):
    # the regularity test of the whole classifies every split block, so a
    # split rank-4 input runs the descent and the test once each
    counts = {"fundamental_stratum": 0, "is_regular": 0}
    for name in counts:
        original = getattr(connections, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(connections, name, counted)
    q = get_field("Q")
    ft = FormalType(TorusData(2, 2), 1, [[Fraction(1), Fraction(1, 2)],
                                          [Fraction(2), Fraction(-1, 3)]], q)
    conn = gauge_transform(random_unit_matrix(seeded(23), 4), FormalConnection(ft.realization()))
    res = diagonalize(conn, digits=4)
    assert res.formal_type == sorted_blocks(ft)
    assert _diagonalizes(conn, res, 4)
    assert counts == {"fundamental_stratum": 1, "is_regular": 1}


def test_diagonalize_block_with_vanishing_leading_coefficient():
    # e = 1 allows one split block whose degree -r coefficient vanishes;
    # it keeps its lower-order terms and zero padding
    q = get_field("Q")
    ft = FormalType(TorusData(1, 3), 2, [[Fraction(0), Fraction(5), Fraction(1, 2)],
                                         [Fraction(1), Fraction(0), Fraction(0)],
                                         [Fraction(2), Fraction(1, 3), Fraction(0)]], q)
    for seed in (0, 29):
        conn = FormalConnection(ft.realization())
        if seed:
            conn = gauge_transform(random_unit_matrix(seeded(seed), 3), conn)
        res = diagonalize(conn, digits=4)
        assert res.formal_type == ft
        assert _diagonalizes(conn, res, 4)


def test_diagonalize_reduces_blocks_over_the_input_field():
    # over Q(i), a split block with rational entries still needs i for its
    # pure normalization (leading coefficients i and 2i)
    qi = get_field("Q(i)")
    i = qi.generator()
    zero = LaurentScalar.zero()
    conn = FormalConnection(LaurentMatrix([
        [zero, LS([(-1, 1)]), zero, zero],
        [LS([(0, -1)]), zero, zero, zero],
        [zero, zero, zero, LaurentScalar({-1: 2 * i})],
        [zero, zero, LaurentScalar({0: 2 * i}), zero]]))
    res = diagonalize(conn, digits=4)
    ft = res.formal_type
    assert (ft.e, ft.m, ft.depth) == (2, 2, 1)
    assert ft.leading() == [i, 2 * i]
    assert _diagonalizes(conn, res, 4)


def test_diagonalize_ungauged_zero_block_like_gauged_copies():
    # diag(t^-2, 0): the zero block is zero only to its window, so the
    # split certifies that it lies in P^(-r) instead of its exact degree
    zero, one = LaurentScalar.zero(), LaurentScalar.one()
    conn = FormalConnection(LaurentMatrix([[LaurentScalar.t_power(-2), zero], [zero, zero]]))
    gauges = [LaurentMatrix([[one, LaurentScalar.t_power(1)], [zero, one]]),
              random_unit_matrix(seeded(41), 2)]
    for digits in (4, 8):
        want = diagonalize(conn, digits=digits).formal_type
        assert want.to_json() == {"e": 1, "m": 2, "r": 2,
                                  "coeffs": [["0/1", "0/1", "0/1"], ["1/1", "0/1", "0/1"]]}
        for g in gauges:
            assert diagonalize(gauge_transform(g, conn), digits=digits).formal_type == want


def test_pure_block_window_short_of_digits_raises_precision_error():
    """The reduction consumes every level through digits: a block known
    only below level 1 answers at digits 0, and at digits 3 names the
    window that certifies level 4 (entry (1, 0) needs t^3, the others
    t^2; each is known to t^1)."""
    block = ToralElement(TorusData(2, 1), [{-1: Fraction(1), 0: Fraction(2),
                                           1: Fraction(3)}]).realization().truncate(1)
    ctx = standard_chain((1, 1))
    _, qs = connections._pure_block_reduce(block, ctx, 1, [range(2)], [Fraction(1)],
                                            get_field("Q"), 0)
    assert qs == [{-1: 1, 0: 2}]
    with pytest.raises(PrecisionError) as info:
        connections._pure_block_reduce(block, ctx, 1, [range(2)], [Fraction(1)],
                                       get_field("Q"), 3)
    assert (info.value.needed, info.value.short_by) == (3, 2)


@st.composite
def split_pure_types(draw):
    """(type, unit-gauged connection, digits): a regular formal type
    whose stratum splits into m >= 2 pure blocks of size e in {2, 3},
    n <= 6, r <= 3, over Q or Q(i), gauged by a unit 1 + O(t).  The
    leading coefficients are nonzero with pairwise distinct e-th powers,
    the eigenvalues of y = beta^e t^r that separate the blocks."""
    field = draw(st.sampled_from([get_field("Q"), get_field("Q(i)")]))
    rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    coeffs = rationals if field.name == "Q" else \
        st.builds(lambda a, b: field.from_coords([a, b]), rationals, rationals)
    e = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(2, 6 // e))
    r = draw(st.sampled_from([k for k in (1, 2, 3) if math.gcd(k, e) == 1]))
    leads = draw(st.lists(coeffs.filter(bool), min_size=m, max_size=m,
                          unique_by=lambda x: sort_key(x ** e)))
    rows = sorted(([lead] + [draw(coeffs) for _ in range(r)] for lead in leads),
                  key=lambda row: sort_key(row[0]))
    ft = FormalType(TorusData(e, m), r, rows, field)
    g = random_unit_matrix(draw(st.randoms(use_true_random=False)), ft.n, depth=2)
    return ft, gauge_transform(g, FormalConnection(ft.realization())), draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(split_pure_types())
def test_diagonalize_split_into_pure_blocks(case):
    """Pure blocks of size e >= 2 split apart and reduced in one level
    loop: the built type comes back, with a gauge residual beyond
    digits."""
    ft, conn, digits = case
    res = diagonalize(conn, digits=digits)
    assert res.formal_type == ft
    assert _diagonalizes(conn, res, digits)
