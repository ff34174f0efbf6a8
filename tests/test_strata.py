"""Strata: characteristic polynomials, the fundamental test against the
brute-force oracle, reductions, Hensel splitting, regularity (against
the recursive splitting classifier of ``helpers.ref_is_regular``)."""

import math
from fractions import Fraction

import pytest

from formalconn.connections import FormalConnection, fundamental_stratum, gauge_transform
from formalconn.errors import FormalConnError, IrreducibleStratum, NonsplitField
from formalconn.formal_types import FormalType
from formalconn.matrices import LaurentMatrix
from formalconn.parahoric import filtration_degree, standard_chain
from formalconn.polys import kpoly_derivative, kpoly_divmod, kpoly_gcd, kpoly_mul, kpoly_trim
from formalconn.scalars import format_scalar, get_field
from formalconn.series import LaurentScalar
from formalconn import linalg, polys, strata
from formalconn.strata import (Stratum, is_fundamental, is_regular,
                               off_block_filtration_ok, reduce_stratum,
                               split_stratum, stratum_char_poly)
from formalconn.torus import TorusData

from helpers import (LS, brute_force_fundamental, lmat, random_matrix, random_regular_type,
                     random_unit_matrix, ref_is_regular, seeded, shear_gauged)

Q = get_field("Q")
QI = get_field("Q(i)")


def F(x):
    return Fraction(x)


def test_char_poly_varpi_inverse():
    # beta = varpi^-1 in gl_2, r = 1: y = t varpi^-2 = 1, phi = (X-1)^2
    iw = standard_chain((1, 1))
    s = Stratum(iw, 1, iw.varpi_power(-1))
    assert kpoly_trim(stratum_char_poly(s).poly) == [F(1), F(-2), F(1)]


def test_char_poly_nilpotent():
    mx = standard_chain((3,))
    n = lmat([[[], [(-1, 1)], [(-1, 2)]], [[], [], [(-1, 1)]], [[], [], []]])
    s = Stratum(mx, 1, n)
    assert kpoly_trim(stratum_char_poly(s).poly) == [F(0), F(0), F(0), F(1)]


def test_char_poly_diagonal():
    mx = standard_chain((2,))
    d = lmat([[[(-2, 4)], []], [[], [(-2, 7)]]])
    s = Stratum(mx, 2, d)
    # (X-4)(X-7) = X^2 - 11 X + 28
    assert kpoly_trim(stratum_char_poly(s).poly) == [F(28), F(-11), F(1)]


def test_fundamental_examples():
    mx = standard_chain((2,))
    iw = standard_chain((1, 1))
    nil = lmat([[[], [(-3, 1)]], [[], []]])
    assert not is_fundamental(Stratum(mx, 3, nil))
    assert is_fundamental(Stratum(iw, 3, iw.varpi_power(-3)))
    diag = lmat([[[(-2, 1)], []], [[], [(-2, 5)]]])
    assert is_fundamental(Stratum(mx, 2, diag))


def test_fundamental_against_brute_force_spot():
    rng = seeded(41)
    for _ in range(60):
        n = rng.choice([2, 3])
        blocks = rng.choice({2: [(2,), (1, 1)], 3: [(3,), (1, 1, 1), (1, 2), (2, 1)]}[n])
        ctx = standard_chain(blocks)
        r = rng.randint(0, 4)
        beta = random_matrix(rng, n, lo=-r - 1, hi=1, density=0.7)
        try:
            d = filtration_degree(beta, ctx)
        except Exception:
            continue
        if d < -r:
            beta = beta.shift((-r - d + ctx.period - 1) // ctx.period)
        s = Stratum(ctx, r, beta)
        assert is_fundamental(s) == brute_force_fundamental(blocks, r, beta)


def test_reduce_stratum_examples():
    iw = standard_chain((1, 1))
    s = Stratum(iw, 2, LaurentMatrix.identity(2).shift(-1))
    red = reduce_stratum(s)
    assert red.ctx.period == 1 and red.r == 1
    assert red.ctx.chain.blocks == (2,)
    assert red.slope == s.slope
    # gcd = 1 input is untouched
    s2 = Stratum(iw, 3, iw.varpi_power(-3))
    assert reduce_stratum(s2) is s2
    # gl_3 Iwahori, r = 3 -> maximal, r = 1
    iw3 = standard_chain((1, 1, 1))
    s3 = Stratum(iw3, 3, LaurentMatrix.identity(3).shift(-1))
    red3 = reduce_stratum(s3)
    assert red3.ctx.period == 1 and red3.r == 1


def test_reduce_preserves_fundamentality():
    rng = seeded(43)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        e_choices = [b for b in [(1,) * n, (n,)] if sum(b) == n]
        if n == 4:
            e_choices.append((2, 2))
        blocks = rng.choice(e_choices)
        ctx = standard_chain(blocks)
        r = rng.choice([0, 2, 4, 6])
        beta = random_matrix(rng, n, lo=-3, hi=1, density=0.6)
        d = filtration_degree(beta, ctx)
        if d < -r:
            beta = beta.shift((-r - d + ctx.period - 1) // ctx.period)
        s = Stratum(ctx, r, beta)
        assert is_fundamental(s) == is_fundamental(reduce_stratum(s))


def test_split_already_diagonal():
    mx = standard_chain((2,))
    d = lmat([[[(-1, 1)], []], [[], [(-1, 2)]]])
    g, parts = split_stratum(Stratum(mx, 1, d))
    assert g.agrees(LaurentMatrix.identity(2))
    assert len(parts) == 2
    assert [p.stratum.beta.rows[0][0].coeff(-1) for p in parts] == [F(1), F(2)]


def test_split_conjugated_pair():
    mx = standard_chain((2,))
    b = lmat([[[(-1, 1)], [(0, 1)]], [[], [(-1, 2)]]])
    s = Stratum(mx, 1, b)
    g, parts = split_stratum(s)
    roots = sorted(p.stratum.beta.rows[0][0].coeff(-1) for p in parts)
    assert roots == [F(1), F(2)]
    conj = g.inverse() * b * g
    assert off_block_filtration_ok(mx, conj, [p.slots for p in parts], 1)


def test_split_pure_raises_irreducible():
    iw = standard_chain((1, 1))
    with pytest.raises(IrreducibleStratum):
        split_stratum(Stratum(iw, 1, iw.varpi_power(-1)))


def test_split_nonsplit_field():
    # residue matrix with irrational eigenvalues: X^2 - 2
    mx = standard_chain((2,))
    b = lmat([[[], [(-1, 1)]], [[(-1, 2)], []]])
    s = Stratum(mx, 1, b)
    with pytest.raises(NonsplitField):
        split_stratum(s, get_field("Q"))


def test_split_nilpotent_part():
    # fundamental but not strongly uniform: one strongly uniform part
    # plus a one-dimensional non-fundamental part
    mx = standard_chain((2,))
    b = lmat([[[(-2, 3)], [(-1, 1)]], [[], [(-1, 1)]]])
    s = Stratum(mx, 2, b)
    assert is_fundamental(s)
    g, parts = split_stratum(s)
    dims = sorted(p.stratum.n for p in parts)
    assert dims == [1, 1]
    fundamentals = sorted(is_fundamental(p.stratum) for p in parts)
    assert fundamentals == [False, True]


def test_split_direct_sum_graded_agreement():
    mx = standard_chain((3,))
    b = lmat([[[(-1, 1)], [(0, 2)], [(0, 1)]],
              [[], [(-1, 2)], [(0, (1, 2))]],
              [[], [], [(-1, 4)]]])
    s = Stratum(mx, 1, b)
    g, parts = split_stratum(s)
    conj = g.inverse() * b * g
    assert off_block_filtration_ok(mx, conj, [p.slots for p in parts], 1)
    assert filtration_degree(g, mx) >= 0
    assert filtration_degree(g.inverse(), mx) >= 0


def test_split_at_minimal_windows():
    # every entry is its graded leading coefficient at -r, known only to
    # min_entry_order(u, v, 1 - r): the least windows a stratum admits;
    # the off-block entries of g^-1 beta g keep them, so the split holds
    # at level 1 - r with no longer window
    rng = seeded(53)
    q = get_field("Q")
    chains = [(2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1), (4,), (2, 2), (1, 3), (1, 1, 2)]
    split = 0
    for _ in range(300):
        ctx = standard_chain(rng.choice(chains))
        e, n = ctx.period, ctx.n
        r = rng.choice([x for x in range(5) if math.gcd(x, e) == 1])
        rows = []
        for u in range(n):
            row = []
            for v in range(n):
                lo, cut = ctx.min_entry_order(u, v, -r), ctx.min_entry_order(u, v, 1 - r)
                c = rng.choice([0, 0, 1, -1, 2, 3]) if cut > lo else 0
                row.append(LS([(lo, c)] if c else [], cut))
            rows.append(row)
        s = Stratum(ctx, r, LaurentMatrix(rows))
        if not is_fundamental(s):
            continue
        try:
            _, _, conj, parts = strata._split_stratum(s, q)
        except (IrreducibleStratum, NonsplitField):
            continue
        split += 1
        assert off_block_filtration_ok(ctx, conj, [p.slots for p in parts], r)
        assert all(conj.rows[u][v].prec == ctx.min_entry_order(u, v, 1 - r)
                   for u in range(n) for v in range(n))
    assert split >= 100


def test_regularity_examples():
    iw = standard_chain((1, 1))
    mx = standard_chain((2,))
    rep = is_regular(Stratum(iw, 3, iw.varpi_power(-3)))
    assert rep and rep.e == 2 and rep.m == 1
    rep2 = is_regular(Stratum(mx, 1, lmat([[[(-1, 1)], []], [[], [(-1, 1)]]])))
    assert not rep2
    rep3 = is_regular(Stratum(mx, 0, lmat([[[(0, (1, 2))], []], [[], []]])))
    assert rep3 and rep3.e == 1 and rep3.m == 2
    rep4 = is_regular(Stratum(mx, 0, lmat([[[(0, 1)], []], [[], []]])))
    assert not rep4
    iw3 = standard_chain((1, 1, 1))
    rep5 = is_regular(Stratum(iw3, 2, iw3.varpi_power(-2)))
    assert rep5 and rep5.e == 3


def test_regularity_report_carries_split():
    mx = standard_chain((2,))
    b = lmat([[[(-1, 1)], [(0, 1)]], [[], [(-1, 2)]]])
    rep = is_regular(Stratum(mx, 1, b))
    assert rep and rep.m == 2
    conj = rep.gauge.inverse() * b * rep.gauge
    assert off_block_filtration_ok(mx, conj, [p.slots for p in rep.parts], 1)
    # the report's inverse and conjugate are those of its gauge
    assert (rep.gauge_inverse * rep.gauge).agrees(LaurentMatrix.identity(2))
    assert rep.gauge_inverse.to_json() == rep.gauge.inverse().to_json()
    assert rep.conjugate.agrees(conj)
    iw = standard_chain((1, 1))
    pure = is_regular(Stratum(iw, 3, iw.varpi_power(-3)))
    assert pure.gauge is None and pure.parts is None
    assert pure.gauge_inverse is None and pure.conjugate is None
    # depth zero: the residue eigenbasis, in the order of the leading
    # data, with one singleton part per eigenvalue
    res = lmat([[[(0, 1), (1, 2)], [(0, 1)]], [[(2, 3)], [(0, (1, 2))]]])
    rep = is_regular(Stratum(mx, 0, res))
    assert rep and rep.e == 1 and rep.leading == [1, Fraction(1, 2)]
    assert all(set(x.coeffs) <= {0} for row in rep.gauge.rows for x in row)
    assert [p.slots for p in rep.parts] == [[0], [1]]
    conj = rep.gauge.inverse() * res * rep.gauge
    assert rep.conjugate.to_json() == conj.to_json()
    assert [[x.coeff(0) for x in row] for row in conj.rows] == [[1, 0], [0, Fraction(1, 2)]]
    assert off_block_filtration_ok(mx, conj, [p.slots for p in rep.parts], 0)
    assert [p.stratum.beta.rows[0][0].coeff_or_zero(0) for p in rep.parts] == rep.leading


def test_pure_strata_classified_without_splitting(monkeypatch):
    """A pure stratum on the complete chain (one nonzero pattern entry
    per row, gcd(r, e) = 1) is classified without decomposing or
    factoring phi or splitting; a pure block that needs a root the field
    lacks still raises NonsplitField.  A stratum that splits reaches
    each refused function, so none is patched in vain."""
    def refuse(*args, **kwargs):
        raise AssertionError("pure stratum decomposed, factored or split")

    refused = ("kpoly_squarefree_parts", "kpoly_factor_squarefree", "_constant_split")
    for name in refused:
        monkeypatch.setattr(strata, name, refuse)
    iw = standard_chain((1, 1))
    rep = is_regular(Stratum(iw, 3, iw.varpi_power(-3) * Fraction(5)))
    assert rep and rep.e == 2 and rep.m == 1 and rep.leading == [5]
    iw3 = standard_chain((1, 1, 1))
    # cyclic product 2 * 4 * 1 = 2^3: alpha = 2 after a diagonal renormalization
    b = lmat([[[], [], [(-1, 2)]], [[(0, 4)], [], []], [[], [(0, 1)], []]])
    rep = is_regular(Stratum(iw3, 1, b))
    assert rep and rep.e == 3 and rep.leading == [2]
    with pytest.raises(NonsplitField, match="regularity undecidable over Q: pure block"):
        is_regular(Stratum(iw, 1, lmat([[[], [(-1, 1)]], [[(0, 2)], []]])), get_field("Q"))
    monkeypatch.undo()
    split = Stratum(standard_chain((2,)), 1, lmat([[[(-1, 1)], [(0, 1)]], [[], [(-1, 2)]]]))
    for name in refused:
        with monkeypatch.context() as patch:
            patch.setattr(strata, name, refuse)
            with pytest.raises(AssertionError, match="pure stratum decomposed"):
                is_regular(split)


def test_is_regular_work_per_call(monkeypatch):
    """One classification computes phi once, makes at most one
    square-free decomposition (none inside the factoring), factors its
    one part at most once and splits at most once, and never runs the
    recursive machinery (the fundamental test, _split_stratum), the full
    factorization or a minimal polynomial."""
    calls = {}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("charpoly", "kpoly_squarefree_parts", "kpoly_factor_squarefree",
                 "kpoly_factor", "_constant_split", "is_fundamental", "_split_stratum"):
        counted(strata, name, name)
    # a decomposition made inside polys (by kpoly_factor) counts too
    counted(polys, "kpoly_squarefree_parts", "kpoly_squarefree_parts")
    assert not hasattr(linalg, "minpoly")
    iw, mx = standard_chain((1, 1)), standard_chain((2,))
    cases = [
        Stratum(iw, 3, iw.varpi_power(-3)),                                # pure
        Stratum(mx, 1, lmat([[[(-1, 1)], [(0, 1)]], [[], [(-1, 2)]]])),    # split
        Stratum(mx, 0, lmat([[[(0, 1)], [(0, 1)]], [[(2, 3)], [(0, (1, 2))]]])),  # depth 0
        Stratum(mx, 1, lmat([[[(-1, 1)], []], [[], [(-1, 1)]]])),          # repeated
        Stratum(mx, 1, lmat([[[], [(-1, 1)]], [[], []]])),                 # nilpotent
    ]
    for s in cases:
        calls.clear()
        is_regular(s)
        assert calls.get("charpoly") == 1, (s, calls)
        assert calls.get("kpoly_squarefree_parts", 0) <= 1, (s, calls)
        assert calls.get("kpoly_factor_squarefree", 0) <= 1, (s, calls)
        assert calls.get("_constant_split", 0) <= 1, (s, calls)
        assert not calls.get("kpoly_factor"), (s, calls)
        assert not calls.get("is_fundamental") and not calls.get("_split_stratum"), (s, calls)
    s = Stratum(standard_chain((2, 2)), 1, lmat([[[], [], [(-1, 1)], []],
                                                  [[], [], [], [(-1, 4)]],
                                                  [[(0, 1)], [], [], []],
                                                  [[], [(0, 1)], [], []]]))
    calls.clear()
    rep = is_regular(s)
    assert rep.m == 2 and rep.leading == [1, 2]
    assert calls == {"charpoly": 1, "kpoly_squarefree_parts": 1, "kpoly_factor_squarefree": 1,
                     "_constant_split": 1}, calls


def test_regularity_with_nilpotent_summand():
    mx = standard_chain((2,))
    b = lmat([[[(-2, 3)], [(-1, 1)]], [[], [(-1, 1)]]])
    rep = is_regular(Stratum(mx, 2, b))
    assert rep and rep.e == 1
    assert sorted(map(str, rep.leading)) == ["0", "3"]


def test_regularity_nonsplit_field_raises():
    mx = standard_chain((2,))
    b = lmat([[[], [(-1, 1)]], [[(-1, 2)], []]])
    with pytest.raises(NonsplitField):
        is_regular(Stratum(mx, 1, b), get_field("Q"))
    # over Q(i) the same leading term (eigenvalues +-sqrt(2)) still fails
    with pytest.raises(NonsplitField):
        is_regular(Stratum(mx, 1, b), get_field("Q(i)"))


def test_regularity_qi_split():
    # eigenvalues +-i: splits over Q(i)
    qi = get_field("Q(i)")
    mx = standard_chain((2,))
    b = lmat([[[], [(-1, 1)]], [[(-1, -1)], []]])
    rep = is_regular(Stratum(mx, 1, b), qi)
    assert rep and rep.e == 1 and rep.m == 2
    i = qi.generator()
    assert sorted(map(str, rep.leading)) == sorted([str(i), str(-i)])


def test_stratum_serialization():
    iw = standard_chain((1, 1))
    s = Stratum(iw, 3, iw.varpi_power(-3))
    data = s.to_json()
    assert data["blocks"] == [1, 1] and data["r"] == 3



def _random_matrix_strata(rng):
    """Fundamental strata of random matrices, n <= 5, over Q."""
    for _ in range(60):
        conn = FormalConnection(random_matrix(rng, rng.randint(1, 5), lo=-rng.randint(0, 3)))
        yield fundamental_stratum(conn)[2], Q


def _gauged_type_strata(rng):
    """Fundamental strata of regular formal types over Q, n <= 8, gauged
    by a unit 1 + O(t) or by a shear."""
    shapes = [(n, e, r) for n in range(1, 9) for e in range(1, n + 1) if n % e == 0
              for r in range(4) if (r == 0 and e == 1) or (r and math.gcd(r, e) == 1)]
    for k in range(60):
        n, e, r = rng.choice(shapes)
        conn = FormalConnection(random_regular_type(rng, n, e, r).realization())
        if k % 2:
            conn = shear_gauged(rng, conn)
        else:
            g = random_unit_matrix(rng, n, depth=2)
            conn = gauge_transform(g, conn)
        yield fundamental_stratum(conn)[2], Q


def _random_pattern_strata(rng):
    """Leading terms with coefficients from a small set on uniform chains,
    over Q and Q(i), so that eigenvalues collide and factors go
    nonlinear."""
    for _ in range(300):
        field = rng.choice([Q, QI])
        e = rng.randint(1, 3)
        k = rng.randint(1, 6 // e)
        r = rng.choice([x for x in range(4) if math.gcd(x, e) == 1 and (x or e == 1)])
        ctx = standard_chain((k,) * e)
        coeffs = [0, 0, 1, -1, 2] + ([QI.generator()] if field is QI else [])
        rows = []
        for u in range(ctx.n):
            row = []
            for v in range(ctx.n):
                c = rng.choice(coeffs)
                row.append(LaurentScalar({ctx.min_entry_order(u, v, -r): c} if c else {}))
            rows.append(row)
        yield Stratum(ctx, r, LaurentMatrix(rows)), field


def _toral_strata(rng):
    """Toral sums whose leading coefficients repeat, are negated at
    e = 2 (equal squares), or are complex conjugates over Q(i)."""
    for _ in range(60):
        field = rng.choice([Q, QI])
        e = rng.randint(1, 3)
        r = rng.choice([x for x in range(4) if math.gcd(x, e) == 1 and (x or e == 1)])
        leads = []
        for _ in range(rng.randint(1, 3)):
            lead = field.from_coords([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                      for _ in range(field.degree)])
            if leads and rng.random() < 0.6:
                prev = rng.choice(leads)
                twins = [prev] + ([-prev] if e == 2 else []) + \
                    ([QI.from_coords([prev.coords[0], -prev.coords[1]])] if field is QI else [])
                lead = rng.choice(twins)
            leads.append(lead if r == 0 or lead != 0 else field.one())
        rows = [[a] + [field.from_rational(rng.randint(-2, 2)) for _ in range(r)] for a in leads]
        yield FormalType(TorusData(e, len(leads)), r, rows, field).induced_stratum(), field


def _outcome(classify, s, field):
    try:
        return classify(s, field)
    except FormalConnError as exc:
        return exc


def _report_json(rep):
    """Everything a regular report holds, as comparable JSON-like values
    (False for any "not regular", whatever the reason)."""
    if not rep:
        return False
    return {"e": rep.e, "m": rep.m, "leading": [format_scalar(a) for a in rep.leading],
            "gauge": rep.gauge and rep.gauge.to_json(),
            "gauge_inverse": rep.gauge_inverse and rep.gauge_inverse.to_json(),
            "conjugate": rep.conjugate and rep.conjugate.to_json(),
            "parts": rep.parts and [(p.slots, p.stratum.ctx.phases, p.stratum.to_json())
                                    for p in rep.parts]}


def _multiplicity_fails(s):
    """Whether some eigenvalue of y has multiplicity other than e, or 0
    is one at e > 1, read off phi and its square-free part P."""
    s = reduce_stratum(s)
    phi = kpoly_trim(stratum_char_poly(s).poly)
    part = kpoly_divmod(phi, kpoly_gcd(phi, kpoly_derivative(phi)))[0]
    power = [F(1)]
    for _ in range(s.e):
        power = kpoly_mul(power, part)
    return power != phi or (s.e > 1 and part[0] == 0)


def test_is_regular_matches_recursive_reference():
    """The one-rule classifier against the recursive splitting it
    replaced (helpers.ref_is_regular), on four seeded families: equal
    reports wherever the reference decides, and where the reference
    finds the field lacking a root, the new test may instead decide "not
    regular", only when the multiplicities already refute regularity."""
    rng = seeded(4411)
    tally = {"regular": 0, "not regular": 0, "decided now": 0, "raised": 0}
    for family in (_random_matrix_strata, _gauged_type_strata, _random_pattern_strata,
                   _toral_strata):
        for s, field in family(rng):
            new = _outcome(is_regular, s, field)
            ref = _outcome(ref_is_regular, s, field)
            if isinstance(ref, Exception) and not isinstance(new, Exception):
                assert isinstance(ref, NonsplitField) and not new, (s, ref, new)
                assert _multiplicity_fails(s), (s, ref, new)
                tally["decided now"] += 1
            elif isinstance(ref, Exception):
                assert type(new) is type(ref), (s, ref, new)
                tally["raised"] += 1
            else:
                assert _report_json(new) == _report_json(ref), (s, ref, new)
                tally["regular" if ref else "not regular"] += 1
    assert min(tally.values()) >= 5, tally
