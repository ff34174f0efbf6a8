"""Formal types, the affine Weyl action, orbit equivalence."""

import itertools
import math
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalconn.connections import FormalConnection, diagonalize, gauge_transform
from formalconn.errors import NonsplitField, ShapeMismatch
from formalconn.formal_types import (FormalType, WeylElement, orbit_equivalent,
                                     validate_formal_type, weyl_act,
                                     weyl_half_sum)
from formalconn.matrices import LaurentMatrix
from formalconn.parahoric import in_filtration
from formalconn.scalars import congruent_mod_z, get_field, sort_key
from formalconn.series import LaurentScalar, OneForm
from formalconn.strata import is_regular
from formalconn.torus import ToralElement, TorusData, tame_corestriction

from helpers import (LS, lmat, random_unit_matrix, ref_is_regular, ref_orbit_equivalent,
                     seeded, weyl_identity)

Q = get_field("Q")
QI = get_field("Q(i)")
QZ3 = get_field("Q(zeta_3)")


def ft_of(e, m, r, rows, field=Q):
    coeffs = [[field.from_rational(c) if field.m != 1 else Fraction(c) for c in row]
              for row in rows]
    return FormalType(TorusData(e, m), r, coeffs, field)


def random_formal_type(rng, field=Q, n_max=4, r_max=5):
    while True:
        n = rng.randint(1, n_max)
        e = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        m = n // e
        if e == 1:
            r = rng.randint(0, r_max)
        else:
            r = rng.choice([k for k in range(1, r_max + 1) if math.gcd(k, e) == 1])
        rows, leads = [], []
        ok = True
        for _ in range(m):
            for _attempt in range(30):
                lead = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                if r == 0:
                    good = all((lead - other).denominator != 1 for other in leads)
                else:
                    good = lead != 0 and lead not in leads
                if good:
                    break
            else:
                ok = False
                break
            leads.append(lead)
            rows.append([lead] + [Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                                  for _ in range(r)])
        if not ok:
            continue
        ft = ft_of(e, m, r, rows, field)
        valid, _ = validate_formal_type(ft)
        if valid:
            return ft


def random_weyl(rng, e, m, galois_ok=True):
    perm = list(range(m))
    rng.shuffle(perm)
    galois = tuple(rng.randrange(e) if galois_ok else 0 for _ in range(m))
    transl = tuple(rng.randint(-3, 3) for _ in range(m))
    return WeylElement(tuple(perm), galois, transl)


def test_validate_examples():
    ok, _ = validate_formal_type(ft_of(1, 2, 1, [[1, 0], [2, 0]]))
    assert ok
    # the Witten type: e=2, r=3, q of degree 3
    ok2, _ = validate_formal_type(ft_of(2, 1, 3, [[1, 0, 2, 0]]))
    assert ok2
    # depth 0 with values differing by an integer
    bad, diags = validate_formal_type(ft_of(1, 2, 0, [[0], [1]]))
    assert not bad and diags
    # vanishing leading coefficient
    bad2, _ = validate_formal_type(ft_of(1, 2, 1, [[0, 1], [2, 0]]))
    assert not bad2
    # gcd violation
    bad3, _ = validate_formal_type(ft_of(2, 1, 2, [[1, 0, 0]]))
    assert not bad3


def colliding_formal_type(rng, field):
    """A formal type with gcd(r, e) = 1 and nonzero leading coefficients
    (e = 1 at depth zero), n <= 8, whose blocks often repeat an earlier
    leading coefficient times a root of unity of order dividing e (at
    depth zero, plus an integer), so that e-th powers collide."""
    e = rng.randint(1, 4)
    m = rng.randint(1, min(3, 8 // e))
    r = rng.choice([k for k in range(0 if e == 1 else 1, 4) if math.gcd(k, e) == 1])
    roots = [field.root_of_unity(d) ** k for d in range(1, e + 1)
             if e % d == 0 and field.has_root_of_unity(d) for k in range(d)]
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.4:
            lead = rng.choice(rows)[0]
            lead = lead + rng.randint(-1, 1) if r == 0 else lead * rng.choice(roots)
        else:
            lead = field.zero()
            while r and lead == 0:
                lead = field.from_coords([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                          for _ in range(field.degree)])
        rows.append([lead] + [field.from_rational(rng.randint(-2, 2)) for _ in range(r)])
    return FormalType(TorusData(e, m), r, rows, field)


def test_closed_form_regularity_matches_is_regular():
    """validate_formal_type decides regularity in closed form; splitting
    the induced stratum recursively (helpers.ref_is_regular, the test
    is_regular replaced) is the oracle, and is_regular agrees."""
    rng = seeded(61)
    conjugate = 0
    for field in (Q, QI, QZ3):
        for _ in range(40):
            a = colliding_formal_type(rng, field)
            ok, diags = validate_formal_type(a)
            assert ok == bool(ref_is_regular(a.induced_stratum(), a.field)), (a, diags)
            assert ok == bool(is_regular(a.induced_stratum(), a.field)), (a, diags)
            # distinct leads with equal e-th powers: Galois-conjugate blocks
            conjugate += any("equal powers" in d for d in diags) and \
                len(set(map(sort_key, a.leading()))) == a.m
    assert conjugate >= 5


def test_weyl_identity_action():
    a = ft_of(1, 2, 1, [[1, 5], [2, 7]])
    assert weyl_act(weyl_identity(2), a) == a


def test_weyl_translation():
    a = ft_of(1, 2, 1, [[1, 5], [2, 7]])
    w = WeylElement((0, 1), (0, 0), (2, -3))
    b = weyl_act(w, a)
    assert b.coeffs[0][-1] == 5 - 2
    assert b.coeffs[1][-1] == 7 + 3
    # translation by e on one block shifts a_j0 by 1
    c = ft_of(2, 1, 3, [[1, 0, 0, 4]])
    wc = weyl_act(WeylElement((0,), (0,), (2,)), c)
    assert wc.coeffs[0][-1] == 3


def test_weyl_galois_twist_pure():
    # e = 2: zeta = -1 multiplies odd varpi-degrees by -1
    a = ft_of(2, 1, 3, [[1, 2, 3, 4]])
    w = WeylElement((0,), (1,), (0,))
    b = weyl_act(w, a)
    assert b.coeffs[0] == [Fraction(-1), Fraction(2), Fraction(-3), Fraction(4)]
    # e = 4 over Q(i): degree d scaled by i^d
    i = QI.generator()
    a4 = FormalType(TorusData(4, 1), 3,
                    [[QI.from_rational(2), QI.zero(), QI.from_rational(1),
                      QI.from_rational(5)]], QI)
    b4 = weyl_act(WeylElement((0,), (1,), (0,)), a4)
    assert b4.coeffs[0][0] == 2 * i ** ((-3) % 4)
    # over Q the twist is unavailable for e = 4
    a4q = ft_of(4, 1, 3, [[2, 0, 1, 5]])
    with pytest.raises(NonsplitField):
        weyl_act(WeylElement((0,), (1,), (0,)), a4q)


def test_weyl_group_action_law():
    rng = seeded(31)
    for _ in range(25):
        a = random_formal_type(rng)
        e, m = a.e, a.m
        galois_ok = Q.has_root_of_unity(e)
        w1 = random_weyl(rng, e, m, galois_ok)
        w2 = random_weyl(rng, e, m, galois_ok)
        lhs = weyl_act(w1.compose(w2), a)
        rhs = weyl_act(w1, weyl_act(w2, a))
        assert lhs == rhs


def test_weyl_preserves_validity():
    rng = seeded(37)
    for _ in range(20):
        a = random_formal_type(rng)
        w = random_weyl(rng, a.e, a.m, Q.has_root_of_unity(a.e))
        ok, diags = validate_formal_type(weyl_act(w, a))
        assert ok, diags


def test_orbit_equivalent_identity_and_roundtrip():
    rng = seeded(41)
    a = ft_of(1, 2, 1, [[1, 5], [2, 7]])
    assert orbit_equivalent(a, a) == weyl_identity(2)
    for _ in range(25):
        b = random_formal_type(rng)
        w = random_weyl(rng, b.e, b.m, Q.has_root_of_unity(b.e))
        w = w.normalized(b.e)
        c = weyl_act(w, b)
        found = orbit_equivalent(c, b)
        assert found is not None
        assert weyl_act(found, b) == c
        assert found == w


def test_orbit_equivalent_block_swap():
    a = ft_of(1, 2, 1, [[1, 9], [2, 11]])
    b = ft_of(1, 2, 1, [[2, 11], [1, 9]])
    w = orbit_equivalent(a, b)
    assert w is not None and w.perm == (1, 0) and w.transl == (0, 0)


def test_orbit_equivalent_negative():
    a = ft_of(1, 2, 1, [[1, 0], [2, 0]])
    b = ft_of(1, 2, 1, [[1, 0], [3, 0]])
    assert orbit_equivalent(a, b) is None
    c = ft_of(1, 2, 1, [[1, 0], [2, Fraction(1, 2)]])
    assert orbit_equivalent(a, c) is None  # non-integral degree-zero shift
    d = ft_of(2, 1, 3, [[1, 0, 0, 0]])
    assert orbit_equivalent(a, d) is None  # shape mismatch


def test_orbit_equivalent_uniqueness():
    rng = seeded(43)
    for _ in range(10):
        a = random_formal_type(rng, n_max=3)
        e, m = a.e, a.m
        w = random_weyl(rng, e, m, Q.has_root_of_unity(e)).normalized(e)
        b = weyl_act(w, a)
        count = 0
        galois_range = range(e) if Q.has_root_of_unity(e) else (0,)
        for perm in itertools.permutations(range(m)):
            for galois in itertools.product(galois_range, repeat=m):
                cand = WeylElement(perm, galois, (0,) * m)
                moved = weyl_act(cand, a)
                diffs = [moved.coeffs[j][-1] - b.coeffs[j][-1] for j in range(m)]
                if all(moved.coeffs[j][:-1] == b.coeffs[j][:-1] for j in range(m)) \
                        and all((d * e).denominator == 1 for d in diffs):
                    count += 1
        assert count == 1


def test_orbit_warning_when_roots_missing():
    a = ft_of(4, 1, 3, [[2, 0, 1, 5]])
    b = ft_of(4, 1, 3, [[2, 0, 1, 5]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w = orbit_equivalent(a, b)
        assert w is not None
        assert any("roots of unity" in str(c.message) for c in caught)


def test_shape_mismatch_raises():
    a = ft_of(1, 2, 1, [[1, 0], [2, 0]])
    with pytest.raises(ShapeMismatch):
        weyl_act(WeylElement((0,), (0,), (0,)), a)


def test_gauge_rigidity_of_formal_types():
    # constant diagonal torus elements fix A_nu exactly; no sampled
    # non-toral constant does
    rng = seeded(47)
    a = ft_of(1, 2, 2, [[1, 0, 0], [3, 0, 2]])
    conn = FormalConnection(a.realization())
    for vals in ((2, 3), (1, 7), (5, 1)):
        s = lmat([[[(0, vals[0])], []], [[], [(0, vals[1])]]])
        moved = gauge_transform(s, conn)
        assert moved.matrix.agrees(conn.matrix)
    for _ in range(10):
        g = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        if g[0][1] == 0 and g[1][0] == 0:
            continue
        gm = LaurentMatrix.from_scalar_matrix(g)
        try:
            moved = gauge_transform(gm, conn)
        except Exception:
            continue
        assert not moved.matrix.agrees(conn.matrix)


def test_end_to_end_weyl_orbit_witness():
    # diagonalize a gauged rho(w)(A) and recover w by orbit comparison
    rng = seeded(53)
    a = ft_of(1, 2, 1, [[1, 5], [2, 7]])
    for _ in range(3):
        w = random_weyl(rng, 1, 2, galois_ok=False)
        b = weyl_act(w, a)
        conn = FormalConnection(b.realization())
        p = random_unit_matrix(rng, 2)
        res = diagonalize(gauge_transform(p, conn), digits=6)
        found = orbit_equivalent(res.formal_type, a)
        assert found is not None
        assert weyl_act(found, a) == res.formal_type


def test_half_sum_identity():
    # tau(s) + (1/e) ad(H)(s) - (deg/e) s lies in P^(1+deg) for monomials
    torus = TorusData(3, 1)
    ctx = torus.context()
    h = weyl_half_sum(torus)
    conn = FormalConnection(LaurentMatrix.zero(3))
    for deg in range(1, 5):
        s = ToralElement(torus, [{deg: Fraction(1)}]).realization()
        lhs = conn.tau_of_matrix(s) + (h * s - s * h) * Fraction(1, 3) \
            - s * Fraction(deg, 3)
        assert in_filtration(lhs, ctx, deg + 1)
    # and pi_t(tau(s)) = (deg/e) s modulo deeper terms
    for deg in range(1, 4):
        s_elt = ToralElement(torus, [{deg: Fraction(2)}])
        pi = tame_corestriction(conn.tau_of_matrix(s_elt.realization()),
                                torus, OneForm.dt_over_t())
        assert pi.coeffs[0].get(deg, 0) == Fraction(2 * deg, 3)


def test_serialization_roundtrip():
    a = ft_of(2, 2, 3, [[1, 0, 2, 0], [4, 0, 0, 1]])
    back = FormalType.from_json(a.to_json(), Q)
    assert back == a
    w = WeylElement((1, 0), (1, 0), (2, -1))
    assert w.to_json() == {"perm": [1, 0], "galois": [1, 0], "translation": [2, -1]}


# -- the canonical form against the reference search --------------------------

Z3 = get_field("Q(zeta_3)")
small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def field_element(draw, field):
    return field.from_coords([draw(small) for _ in range(field.degree)])


def is_generic(leads, e, r):
    """Leading data with a trivial stabilizer in the Weyl group: pairwise
    incongruent modulo Z at depth zero, else nonzero with pairwise
    distinct e-th powers (gcd(r, e) = 1), so no twist, translation or
    block swap fixes the type."""
    if r == 0:
        return not any(congruent_mod_z(x, y) for i, x in enumerate(leads) for y in leads[i + 1:])
    powers = [x ** e for x in leads]
    return all(x != 0 for x in leads) and all(
        p != q for i, p in enumerate(powers) for q in powers[i + 1:])


@st.composite
def orbit_pair(draw):
    """(a, b): a generic formal type a over Q, Q(i) or Q(zeta_3), and b
    either weyl_act(w, a) for a drawn w or that type with one coefficient
    moved, which may or may not leave the orbit."""
    field = draw(st.sampled_from([Q, QI, Z3]))
    e = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4 if e < 4 else 3))
    if e == 1:
        r = draw(st.integers(0, 3))
    else:
        r = draw(st.sampled_from([k for k in range(1, 5) if math.gcd(k, e) == 1]))
    rows = [[field_element(draw, field) for _ in range(r + 1)] for _ in range(m)]
    leads = [row[0] for row in rows]
    if not is_generic(leads, e, r):
        rows = [[field.from_rational(Fraction(j + 1, 3 ** j))] + row[1:]
                for j, row in enumerate(rows)]
    a = FormalType(TorusData(e, m), r, rows, field)
    twists = field.has_root_of_unity(e)
    w = WeylElement(tuple(draw(st.permutations(range(m)))),
                    tuple(draw(st.integers(0, e - 1)) if twists else 0 for _ in range(m)),
                    tuple(draw(st.integers(-3, 3)) for _ in range(m)))
    b = weyl_act(w, a)
    if draw(st.booleans()):
        coeffs = [list(row) for row in b.coeffs]
        j, i = draw(st.integers(0, m - 1)), draw(st.integers(0, r))
        coeffs[j][i] = coeffs[j][i] + draw(st.sampled_from(
            [Fraction(1, 2 * e), Fraction(1, e), Fraction(1), field.one()]))
        b = FormalType(a.torus, r, coeffs, field)
    return a, b


@settings(max_examples=300)
@given(orbit_pair())
def test_orbit_equivalent_matches_reference_search(pair):
    a, b = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = orbit_equivalent(b, a)
    want = ref_orbit_equivalent(b, a)
    assert got == want
    if got is not None:
        assert weyl_act(got, a) == b


def _distinct_orbit_pair(e, m, field):
    """A generic type and a copy whose last block's degree-zero
    coefficient moved by 1/(2e), which no Weyl element can do."""
    rows = [[field.from_rational(Fraction(j + 1, 3 ** j))] +
            [field.from_rational(Fraction(k - j, 2)) for k in range(3)] for j in range(m)]
    a = FormalType(TorusData(e, m), 3, rows, field)
    moved = [list(row) for row in rows]
    moved[-1][-1] = moved[-1][-1] + Fraction(1, 2 * e)
    return a, FormalType(a.torus, 3, moved, field)


@pytest.mark.parametrize("e, m, field", [(4, 5, QI), (2, 8, Q)])
def test_orbit_equivalent_distinct_orbits_fast(e, m, field):
    a, b = _distinct_orbit_pair(e, m, field)
    t0 = time.perf_counter()
    assert orbit_equivalent(a, b) is None
    assert orbit_equivalent(b, a) is None
    assert time.perf_counter() - t0 < 1.0
    # a moved copy at the same size is found, with its witness
    w = WeylElement(tuple(reversed(range(m))), tuple(j % e for j in range(m)),
                    tuple(range(m)))
    assert orbit_equivalent(weyl_act(w, a), a) == w


def test_orbit_equivalent_mixed_coefficient_types():
    # a type over Q(i) may hold its rational coefficients as Fractions
    i = QI.generator()
    a = FormalType(TorusData(1, 2), 1, [[QI.from_rational(1), QI.from_rational(3)],
                                        [i, QI.zero()]], QI)
    b = FormalType(a.torus, 1, [[Fraction(1), Fraction(3)], [i, Fraction(0)]], QI)
    assert orbit_equivalent(a, b) == weyl_identity(2)
    assert orbit_equivalent(b, a) == weyl_identity(2)
