"""The slope descent against the reference descent of ``helpers``.

The library scans each ordered set partition once on an integer order
table and moves shear rounds in closed form; the reference tries every
(permutation, composition) pair through a permuted matrix and applies
every gauge by the general gauge action.  Both must return the same
gauge, moved matrix and stratum -- every entry's coefficients and
precision -- or raise the same exception type.
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from formalconn import connections
from formalconn.connections import (FormalConnection, _compositions, _scan_standard,
                                    fundamental_stratum)
from formalconn.linalg import kinverse
from formalconn.matrices import LaurentMatrix
from formalconn.parahoric import GradedEndo, filtration_degree, standard_chain
from formalconn.series import INF, LaurentScalar

from helpers import ref_fundamental_stratum

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def window_entry(draw, lowest):
    """A series with exponents in [lowest, 1], exact or known to a window
    that may swallow every coefficient (zero only to its window)."""
    exps = draw(st.lists(st.integers(lowest, 1), max_size=3, unique=True))
    coeffs = {k: draw(rationals) for k in exps}
    prec = draw(st.one_of(st.just(INF), st.just(INF), st.integers(lowest, 3)))
    return LaurentScalar(coeffs, prec)


@st.composite
def descent_matrix(draw):
    """Entries above the diagonal reach t^-4; on and below it they start
    at a drawn order, so the leading term on the maximal chain is often
    strictly upper triangular and finer chains or shears are needed.  A
    drawn relabelling of the basis moves the certifying candidate off
    the identity permutation."""
    n = draw(st.integers(1, 4))
    lowest = draw(st.integers(-4, 0))
    rows = []
    for u in range(n):
        rows.append([draw(st.one_of(st.just(LaurentScalar.zero()),
                                    window_entry(-4 if v > u else lowest)))
                     for v in range(n)])
    perm = draw(st.permutations(range(n)))
    return LaurentMatrix([[rows[perm[u]][perm[v]] for v in range(n)] for u in range(n)])


def _entries(mat):
    return [[(dict(x.coeffs), x.prec) for x in row] for row in mat.rows]


def _outcome(fn, conn):
    try:
        gauge, cur, s = fn(conn)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)
    return (_entries(gauge), _entries(cur.matrix), s.ctx.phases, s.ctx.chain.blocks,
            s.r, _entries(s.beta))


def _assert_same_descent(conn):
    got = _outcome(fundamental_stratum, conn)
    want = _outcome(ref_fundamental_stratum, conn)
    assert got == want
    # INF is one object: an exact entry must keep it, not another infinity
    if not isinstance(got, type):
        for rows in (got[0], got[1], got[5]):
            assert all(p is INF or p != INF for row in rows for _, p in row)


@settings(max_examples=150)
@given(descent_matrix())
def test_descent_matches_reference(mat):
    _assert_same_descent(FormalConnection(mat))


def test_relabelled_iwahori_strata_match_reference():
    # varpi^-k on the Iwahori chain is fundamental there (and on no
    # coarser chain), so after a relabelling of the basis the scan must
    # find it through a permutation other than the identity.
    rng = random.Random(303)
    for n, k in ((3, 1), (3, 2), (4, 1), (4, 3)):
        base = standard_chain((1,) * n).varpi_power(-k)
        noise = LaurentMatrix([[LaurentScalar({0: Fraction(rng.randint(-2, 2))})
                                for _ in range(n)] for _ in range(n)])
        for perm in itertools.permutations(range(n)):
            mat = base + noise
            relabelled = LaurentMatrix([[mat.rows[perm[u]][perm[v]] for v in range(n)]
                                        for u in range(n)])
            _assert_same_descent(FormalConnection(relabelled))


def _shear_gauged_diagonal(rng, n, depth):
    """d + D dt/t for a diagonal D of polar order ``depth`` with distinct
    leading coefficients, gauged by C1 diag(t^a) C2 (constant C1, C2)."""
    diag = []
    for j in range(n):
        coeffs = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for k in range(-depth + 1, 1)}
        coeffs[-depth] = Fraction(j + 1) * rng.choice([-1, 1])
        diag.append(LaurentScalar(coeffs))

    def constant(m):
        return LaurentMatrix.from_scalar_matrix(m)

    def invertible():
        while True:
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            inv = kinverse(rows)
            if inv is not None:
                return constant(rows), constant(inv)

    def diagonal(items):
        return LaurentMatrix([[items[i] if i == j else LaurentScalar.zero() for j in range(n)]
                              for i in range(n)])

    a = [rng.randint(-2, 2) for _ in range(n)]
    c1, c1_inv = invertible()
    c2, c2_inv = invertible()
    g = c1 * diagonal([LaurentScalar.t_power(k) for k in a]) * c2
    g_inv = c2_inv * diagonal([LaurentScalar.t_power(-k) for k in a]) * c1_inv
    tau_g = c1 * diagonal([LaurentScalar.t_power(k, Fraction(k)) for k in a]) * c2
    return FormalConnection(g * diagonal(diag) * g_inv - tau_g * g_inv)


def test_shear_rounds_match_reference_n5_n6(monkeypatch):
    rng = random.Random(5060)
    calls = []
    original = connections._moser_move

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(connections, "_moser_move", counting)
    for n, depth in ((5, 1), (5, 2), (6, 1), (6, 2)):
        conn = _shear_gauged_diagonal(rng, n, depth)
        calls.clear()
        _assert_same_descent(conn)
        assert calls, "the case should run at least one shear round"


def test_scan_tries_each_ordered_set_partition_once(monkeypatch):
    # t^-2 times a nilpotent Jordan block: every leading pattern lies in
    # a strictly triangular support, so no candidate is fundamental, and
    # the scan tests the nilpotency of each ordered set partition whose
    # stratum needs no gcd reduction exactly once.
    counts = []
    original = GradedEndo.is_nilpotent

    def counting(self):
        counts.append(1)
        return original(self)

    monkeypatch.setattr(GradedEndo, "is_nilpotent", counting)
    # ordered set partitions of n indices (Fubini numbers), against
    # n! 2^(n-1) (permutation, composition) pairs
    for n, partitions in ((2, 3), (3, 13), (4, 75)):
        mat = LaurentMatrix([[LaurentScalar.t_power(-2) if v == u + 1 else LaurentScalar.zero()
                              for v in range(n)] for u in range(n)])
        perms = list(itertools.permutations(range(n)))
        pairs, keys = [], {}
        for perm in perms:
            permuted = LaurentMatrix([[mat.rows[perm[u]][perm[v]] for v in range(n)]
                                      for u in range(n)])
            for blocks in _compositions(n):
                ctx = standard_chain(blocks)
                coprime = math.gcd(-filtration_degree(permuted, ctx), ctx.period) == 1
                pairs.append(coprime)
                keys[frozenset((perm[u], ctx.phases[u]) for u in range(n))] = coprime
        assert len(keys) == partitions and len(pairs) == len(perms) << (n - 1)
        counts.clear()
        assert _scan_standard(mat, n, perms) is None
        assert len(counts) == sum(keys.values()) < sum(pairs)
