"""The slope at ranks above four: against the Katz growth oracle at
n = 5, 6 (ramified slopes r/e, e > 1), against the built formal type at
n = 5 to 8, 12 and 16 (where the oracle takes a minute or more), on the
two inputs that the former shear rounds gave up on, and on a rank-32
cyclic input."""

import random
import time
from fractions import Fraction

import pytest

from formalconn.connections import FormalConnection, fundamental_stratum, slope
from formalconn.matrices import LaurentMatrix
from formalconn.series import LaurentScalar

from helpers import (descent_round_bound, katz_slope_oracle, random_regular_type, random_series,
                     record_descent_depths, shear_gauged)


def _gauged_type(seed, n, e, r, spread=2):
    rng = random.Random(seed)
    ft = random_regular_type(rng, n, e, r)
    return shear_gauged(rng, FormalConnection(ft.realization()), spread)


def _triangular_random(seed, n, upper, lower, density=0.35):
    """Entries above the diagonal from t^upper, the others from t^lower:
    the leading term on the maximal chain is nilpotent, and the slope is
    often ramified."""
    rng = random.Random(seed)
    return FormalConnection(LaurentMatrix([[random_series(rng, upper if v > u else lower, 3,
                                                          density)
                                            for v in range(n)] for u in range(n)]))


def test_slope_matches_oracle_rank_5_6():
    # (connection, slope, oracle iterations): 30 iterations settle the
    # rank-6 shear-gauged slope 1/3 at half the default's cost
    cases = [
        (_gauged_type(2, 5, 5, 2, spread=1), Fraction(2, 5), 40),
        (_gauged_type(2, 6, 3, 1, spread=1), Fraction(1, 3), 30),
        (_triangular_random(7, 5, -2, -1), Fraction(7, 4), 40),
        # the seed-777 rank-6 matrix the shear rounds gave up on
        (_triangular_random(777, 6, -2, -1), Fraction(3, 2), 40),
    ]
    for conn, want, imax in cases:
        assert slope(conn) == katz_slope_oracle(conn, imax=imax) == want


def test_oracle_answers_only_slopes_rank_6():
    # seed-777 rank-6 matrices on which the former oracle, which searched
    # the 1/n! grid, answered 21/40 and 41/60, and failed its own bound
    cases = [
        (_triangular_random(777, 6, -2, 1), Fraction(1, 2)),
        (_triangular_random(777, 6, -2, 1, density=0.6), Fraction(2, 3)),
        (_triangular_random(777, 6, -3, 0, density=0.6), Fraction(12, 5)),
    ]
    for conn, want in cases:
        assert slope(conn) == katz_slope_oracle(conn) == want


def test_oracle_raises_when_iterations_cannot_separate():
    # after twelve iterations 3/5 leads the slope 1/2 by a tenth of a unit
    with pytest.raises(AssertionError, match="cannot separate"):
        katz_slope_oracle(_triangular_random(777, 6, -2, 1), imax=12)


def test_slope_of_built_types_rank_5_to_16(monkeypatch):
    depths = record_descent_depths(monkeypatch)
    for seed, (n, e, r) in enumerate([(5, 5, 3), (6, 2, 1), (6, 6, 1), (6, 2, 3), (7, 7, 2),
                                      (7, 1, 2), (8, 4, 3), (8, 2, 1), (8, 8, 3), (12, 4, 2),
                                      (16, 8, 1)]):
        depths.clear()
        assert slope(_gauged_type(100 + seed, n, e, r)) == Fraction(r, e)
        assert len(depths) <= descent_round_bound(n, depths[0])
        assert all(a < b for a, b in zip(depths, depths[1:]))


def test_shear_round_failures_from_seed_1004():
    # The ungauged realization of a (6, 3, 1) type and a shear-gauged
    # (5, 5, 2) one, drawn in this order from one seeded generator: the
    # former descent gave up on both ("slope descent did not terminate").
    rng = random.Random(1004)
    ungauged = FormalConnection(random_regular_type(rng, 6, 3, 1).realization())
    gauged = shear_gauged(rng, FormalConnection(random_regular_type(rng, 5, 5, 2).realization()))
    assert slope(ungauged) == Fraction(1, 3)
    assert slope(gauged) == Fraction(2, 5)
    _, _, s = fundamental_stratum(gauged)
    assert (s.r, s.e, s.ctx.chain.blocks) == (2, 5, (1,) * 5)


def test_rank_32_cyclic(monkeypatch):
    # companion matrix: ones below the diagonal, a_i in the last column.
    # The cycle through a_i has length n - i, so the slope is the largest
    # -ord(a_i) / (n - i): here 1/4, reached by a_0 and a_16 together.
    n = 32
    last = {0: LaurentScalar({-8: Fraction(3), 0: Fraction(1)}),
            16: LaurentScalar({-4: Fraction(-2), 1: Fraction(1)}),
            24: LaurentScalar({-1: Fraction(5)}),
            31: LaurentScalar({0: Fraction(1, 2)})}
    zero, one = LaurentScalar.zero(), LaurentScalar.one()
    rows = [[one if u == v + 1 else zero for v in range(n)] for u in range(n)]
    for i, a in last.items():
        rows[i][n - 1] = a
    depths = record_descent_depths(monkeypatch)
    start = time.perf_counter()
    _, _, s = fundamental_stratum(FormalConnection(LaurentMatrix(rows)))
    assert time.perf_counter() - start < 10
    assert max(Fraction(-a.order, n - i) for i, a in last.items()) == s.slope == Fraction(1, 4)
    assert s.ctx.chain.blocks == (8,) * 4
    # the leading term at the first chain is not nilpotent: one round
    assert len(depths) == 1 <= descent_round_bound(n, depths[0])
