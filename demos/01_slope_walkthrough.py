"""Slope computation walkthrough.

Builds a handful of connections, shows the filtration depth on the
maximal and the Iwahori chain of the given frame, and compares the
slope, which the descent certifies by a fundamental stratum (after
shears and basis changes where the frame has none), with the naive
polar order.  Run:  python demos/01_slope_walkthrough.py
"""

from fractions import Fraction

from formalconn import (FormalConnection, LaurentMatrix, LaurentScalar,
                        OneForm, filtration_degree, fundamental_stratum,
                        is_fundamental, slope, standard_chain,
                        stratum_char_poly)
from formalconn.strata import Stratum


def series(pairs):
    """Exact series from (exponent, value) pairs; a value is an integer
    or a (numerator, denominator) tuple."""
    return LaurentScalar({k: Fraction(*v) if isinstance(v, tuple) else Fraction(v)
                          for k, v in pairs})


def connection_from_dt(entries):
    rows = [[series(e) for e in row] for row in entries]
    return FormalConnection.from_dt_matrix(LaurentMatrix(rows), OneForm.dt())


def show(name, conn):
    print("=" * 60)
    print(name)
    std = conn.standardized()
    n = conn.n
    print("  [nabla_tau] =", std.matrix.to_json())
    for blocks in [(n,)] + ([(1,) * n] if n > 1 else []):
        ctx = standard_chain(blocks)
        d = filtration_degree(std.matrix, ctx)
        line = "  chain %-12r depth r = %s, slope bound %s" % (
            blocks, -d, Fraction(-d, ctx.period) if d < 0 else 0)
        try:
            s = Stratum(ctx, max(0, -d), std.matrix)
            line += ", fundamental" if is_fundamental(s) else ", NOT fundamental"
            line += ", phi = %s" % stratum_char_poly(s).format()
        except Exception as exc:
            line += " (%s)" % exc
        print(line)
    print("  slope =", slope(conn))
    gauge, cur, strat = fundamental_stratum(conn)
    print("  certifying stratum: blocks %r, r = %d (slope %s), gauge %s"
          % (strat.ctx.chain.blocks, strat.r, strat.slope, gauge.to_json()))


# The nilpotent-leading-term example: the naive polar order says 3 but
# the complete chain sees the true slope 3/2.
show("irregular with nilpotent leading term",
     connection_from_dt([[[], [(-3, 1)]], [[(-2, 1)], []]]))

# A split pair of line connections: the slope is the deeper of the two.
show("split diagonal", FormalConnection(LaurentMatrix([
    [series([(-2, 1)]), LaurentScalar.zero()],
    [LaurentScalar.zero(), series([(-5, 3)])]])))

# The shear case: every standard chain in the given frame is
# non-fundamental; the descent shears the lattice by diag(1, t^-1) and
# finds the slope 1 on the maximal chain.
show("kernel shear needed", FormalConnection(LaurentMatrix([
    [LaurentScalar.zero(), series([(-2, 1)])],
    [series([(0, 1)]), LaurentScalar.zero()]])))

# A regular singular connection: slope zero.
show("regular singular", FormalConnection(LaurentMatrix([
    [series([(0, (1, 2))]), series([(1, 1)])],
    [LaurentScalar.zero(), series([(0, (1, 3))])]])))
