"""Polynomial machinery: gcd, factorization, Hensel lifting, series
characteristic polynomials."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalconn import cli
from formalconn.errors import FactorTooLarge
from formalconn.linalg import charpoly, minpoly
from formalconn.polys import (MAX_NORM_DEGREE, charpoly_series, hensel_lift, kpoly_deg,
                              kpoly_divmod, kpoly_factor, kpoly_gcd,
                              kpoly_gcdext, kpoly_is_squarefree, kpoly_monic, kpoly_mul,
                              kpoly_roots, nth_root_in_field)
from formalconn.scalars import format_scalar, get_field, scalar_coords, sort_key
from formalconn.series import LaurentScalar
from formalconn.strata import pure_leading

from helpers import LS, lmat, seeded, spoly_mul

Q = get_field("Q")
QI = get_field("Q(i)")
DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def F(*args):
    return Fraction(*args)


def test_gcd_and_bezout():
    # (x-1)(x-2) and (x-1)(x-3)
    p = kpoly_mul([F(-1), F(1)], [F(-2), F(1)])
    q = kpoly_mul([F(-1), F(1)], [F(-3), F(1)])
    g = kpoly_gcd(p, q)
    assert g == [F(-1), F(1)]
    g2, u, v = kpoly_gcdext([F(-2), F(1)], [F(-3), F(1)])
    assert kpoly_deg(g2) == 0
    from formalconn.polys import kpoly_add
    combo = kpoly_add(kpoly_mul(u, [F(-2), F(1)]), kpoly_mul(v, [F(-3), F(1)]))
    assert combo == g2


def test_factor_over_q():
    # x^4 - 5x^2 + 6 = (x^2-2)(x^2-3)
    p = [F(6), F(0), F(-5), F(0), F(1)]
    facs = kpoly_factor(p, Q)
    assert sorted(kpoly_deg(f) for f, _ in facs) == [2, 2]
    roots, nonsplit = kpoly_roots(p, Q)
    assert roots == [] and kpoly_deg(nonsplit) == 4
    # (x-1)^2 (x+2)
    p2 = kpoly_mul(kpoly_mul([F(-1), F(1)], [F(-1), F(1)]), [F(2), F(1)])
    roots2, nonsplit2 = kpoly_roots(p2, Q)
    assert sorted(roots2) == [(F(-2), 1), (F(1), 2)]
    assert kpoly_deg(nonsplit2) == 0


def test_factor_over_qi():
    i = QI.generator()
    p = [QI.one(), QI.zero(), QI.one()]  # x^2 + 1
    roots, nonsplit = kpoly_roots(p, QI)
    assert kpoly_deg(nonsplit) == 0
    assert sorted(str(r) for r, _ in roots) == sorted([str(i), str(-i)])


def test_nth_root_in_field_non_rational():
    i = QI.generator()
    # x^2 = 2i has the roots +-(1 + i); the least under sort_key is taken
    root = nth_root_in_field(2 * i, 2, QI)
    assert root == min([1 + i, -1 - i], key=sort_key) and root * root == 2 * i
    assert nth_root_in_field(-i, 3, QI) == i
    # 8 zeta_3 = (2 zeta_9)^3, and zeta_9 is not in Q(zeta_3)
    z3 = get_field("Q(zeta_3)")
    assert nth_root_in_field(8 * z3.generator(), 3, z3) is None
    # rational radicands keep their rational choice
    assert nth_root_in_field(F(-4), 2, QI) == 2 * i
    assert nth_root_in_field(F(9), 2, QI) == 3
    # so a pure block whose cyclic product is (2 + 2i)(1/2 + i/2) = 2i
    # is normalized over Q(i)
    _, alpha = pure_leading([[0, 2 + 2 * i], [(1 + i) / 2, 0]], QI)
    assert alpha == root


def test_squarefree():
    assert kpoly_is_squarefree([F(-2), F(1)])
    assert not kpoly_is_squarefree(kpoly_mul([F(-1), F(1)], [F(-1), F(1)]))


def test_divmod():
    p = kpoly_mul([F(1), F(1)], [F(2), F(3), F(1)])
    quo, rem = kpoly_divmod(p, [F(1), F(1)])
    assert rem == [F(0)] and quo == [F(2), F(3), F(1)]


def test_charpoly_minpoly():
    m = [[F(2), F(1)], [F(0), F(2)]]
    assert charpoly(m) == [F(4), F(-4), F(1)]
    assert minpoly(m) == [F(4), F(-4), F(1)]
    d = [[F(2), F(0)], [F(0), F(2)]]
    assert minpoly(d) == [F(-2), F(1)]


def test_charpoly_series_matches_constant():
    mat = lmat([[[(0, 2)], [(0, 1)]], [[(0, 0)], [(0, 3)]]])
    phi = charpoly_series(mat)
    assert phi[0].coeff(0) == 6 and phi[1].coeff(0) == -5 and phi[2].coeff(0) == 1


def test_hensel_lift_splits_char_poly():
    # y = diag(1 + t, 2 + t^2) style: phi over o with coprime residue factors
    mat = lmat([[[(0, 1), (1, 1)], [(1, 5)]], [[(2, 1)], [(0, 2), (2, 1)]]])
    digits = 10
    phi = [c.truncate(digits) for c in charpoly_series(mat)]
    g0, h0 = [F(-1), F(1)], [F(-2), F(1)]
    g, h = hensel_lift(phi, [g0, h0], digits)
    prod = spoly_mul(g, h, prec=digits)
    for a, b in zip(prod, phi):
        assert a.agrees(b, through=digits)


def test_factor_deterministic_order():
    p = kpoly_mul([F(-5), F(1)], kpoly_mul([F(-1), F(1)], [F(3), F(1)]))
    facs1 = kpoly_factor(p, Q)
    facs2 = kpoly_factor(list(p), Q)
    assert facs1 == facs2


# -- the native factorizer against sympy, and its hard cases -------------

Z3 = get_field("Q(zeta_3)")


def sympy_factor(p, field):
    """kpoly_factor's contract computed by sympy's dup_factor_list, the
    test-only oracle: monic factors with multiplicities, sorted by
    (degree, coefficients)."""
    import sympy
    from sympy.polys.factortools import dup_factor_list
    from sympy.polys.polyclasses import ANP

    def rational(q):
        return sympy.QQ(q.numerator, q.denominator)

    if field.m == 1:
        dom = sympy.QQ
        to_dom = rational
    else:
        gen = sympy.I if field.m == 4 else sympy.exp(2 * sympy.pi * sympy.I / field.m)
        dom = sympy.QQ.algebraic_field(gen)
        mod = [rational(c) for c in reversed(field.modulus)]

        def to_dom(c):
            coords = scalar_coords(c) + [F(0)] * (field.degree - len(scalar_coords(c)))
            return ANP([rational(x) for x in reversed(coords)], mod, sympy.QQ)

    def from_dom(c):
        if field.m == 1:
            return F(int(c.numerator), int(c.denominator))
        coords = [F(int(x.numerator), int(x.denominator)) for x in reversed(c.to_list())]
        return field.from_coords(coords + [F(0)] * (field.degree - len(coords)))

    _, factors = dup_factor_list([to_dom(c) for c in reversed(kpoly_monic(p))], dom)
    out = [(kpoly_monic([from_dom(c) for c in reversed(fac)]), mult) for fac, mult in factors]
    out.sort(key=lambda fm: (kpoly_deg(fm[0]), tuple(sort_key(c) for c in fm[0])))
    return out


def _typed(facs):
    """Factors with each coefficient's type, so that a Fraction where an
    Ext is due counts as a difference."""
    return [([(type(c).__name__, format_scalar(c)) for c in f], mult) for f, mult in facs]


_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _factor_products(draw):
    field = draw(st.sampled_from([Q, QI, Z3]))

    def element():
        coords = [draw(_coeff)] + [draw(_coeff) if draw(st.booleans()) else F(0)
                                   for _ in range(field.degree - 1)]
        return field.from_coords(coords)

    p = [field.one()]
    for _ in range(draw(st.integers(1, 3))):
        fac = [element() for _ in range(draw(st.integers(1, 2)))] + [field.one()]
        for _ in range(draw(st.integers(1, 2))):
            p = kpoly_mul(p, fac)
    return field, p


@given(_factor_products())
@settings(max_examples=60)
def test_factor_matches_sympy(case):
    field, p = case
    assert _typed(kpoly_factor(p, field)) == _typed(sympy_factor(p, field))


def test_swinnerton_dyer_is_irreducible():
    # x^4 - 10x^2 + 1 (roots +-sqrt2 +-sqrt3) splits modulo every prime
    p = [F(1), F(0), F(-10), F(0), F(1)]
    assert kpoly_factor(p, Q) == [(p, 1)]
    assert [kpoly_deg(f) for f, _ in kpoly_factor(p, get_field("Q(zeta_24)"))] == [1, 1, 1, 1]


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12])
def test_cyclotomic_polynomial_splits_completely(m):
    field = get_field("Q(zeta_%d)" % m)
    phi = [F(c) for c in field.modulus]
    assert kpoly_factor(phi, Q) == [(phi, 1)]
    facs = kpoly_factor(phi, field)
    assert [kpoly_deg(f) for f, _ in facs] == [1] * field.degree
    roots = {format_scalar(-f[0]) for f, _ in facs}
    z = field.generator()
    assert roots == {format_scalar(z ** k) for k in range(1, m) if math.gcd(k, m) == 1}


def test_factor_non_monic_large_and_small_inputs():
    # 6x^2 - x - 1 = 6 (x - 1/2)(x + 1/3)
    assert kpoly_factor([F(-1), F(-1), F(6)], Q) == [([F(-1, 2), F(1)], 1), ([F(1, 3), F(1)], 1)]
    big = 10 ** 30 + 57
    p = kpoly_mul([F(-big), F(1)], [F(big, 7), F(0), F(1)])
    assert kpoly_factor(p, Q) == [([F(-big), F(1)], 1), ([F(big, 7), F(0), F(1)], 1)]
    assert kpoly_factor([F(7, 3)], Q) == []
    assert kpoly_factor([F(2), F(4)], Q) == [([F(1, 2), F(1)], 1)]
    i = QI.generator()
    assert kpoly_factor([i, QI.from_rational(2)], QI) == [([i / 2, QI.one()], 1)]


def test_factor_large_cyclotomic_field_is_quick():
    z105 = get_field("Q(zeta_105)")
    start = time.perf_counter()
    facs = kpoly_factor([z105.from_rational(-1), z105.zero(), z105.one()], z105)
    assert time.perf_counter() - start < 2
    assert facs == [([z105.from_rational(-1), z105.one()], 1),
                    ([z105.one(), z105.one()], 1)]
    # a non-rational polynomial whose Trager norm would have degree 96
    with pytest.raises(FactorTooLarge):
        kpoly_factor([z105.generator(), z105.zero(), z105.one()], z105)
    assert 2 * z105.degree > MAX_NORM_DEGREE


def test_diagonalize_rank_two_over_zeta_105_is_quick(tmp_path, capsys):
    doc = {"schema_version": 1, "n": 2, "field": "Q(zeta_105)",
           "matrix": [[[[-1, "1/1"]], []], [[], [[-1, "2/1"]]]]}
    path = tmp_path / "z105.conn.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli.main(["diagonalize", str(path)]) == 5
    assert time.perf_counter() - start < 2
    assert json.loads(capsys.readouterr().err)["error"] == "NOT_REGULAR"
    doc["matrix"][1][1] = [[-1, "1/3+1/1*z"]]
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli.main(["diagonalize", str(path)]) == 5
    assert time.perf_counter() - start < 2
    assert json.loads(capsys.readouterr().err)["error"] == "FACTOR_TOO_LARGE"


def test_cli_never_imports_sympy():
    script = (
        "import contextlib, glob, io, os, sys\n"
        "from formalconn import cli\n"
        "files = sorted(glob.glob(os.path.join(%r, '*.conn.json')))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for f in files:\n"
        "        assert cli.main(['analyze', f]) == 0\n"
        "        assert cli.main(['diagonalize', f]) == 0\n"
        "    assert cli.main(['isomorphic'] + files[:2]) == 0\n"
        "print('sympy' in sys.modules)\n" % DATA)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
