"""Workload ``slope``: the slope descent alone, with no splitting and no
Hensel lifting.

Two kinds of items: realizations of regular formal types gauged by
C1 diag(t^a) C2 (the slope must be depth/e), and criterion-1 style
random matrices (the slope must match the Katz growth oracle).
"""

import random
from fractions import Fraction

from common import (Item, Q, katz_slope_oracle, random_formal_type,
                    random_matrix, realization, shear_gauged)
from formalconn import connections

# (n, e, depth, copies): every e | n for n <= 4, and e = 1 for n = 5, 6
# (the only ranks above 4 the descent handles).  n <= 3 items take
# 1-60 ms; n = 4 items try up to 192 scan candidates and n = 5, 6 items
# run the shear moves.  Each copy has its own seeded coefficients and
# gauge.  The shapes whose cost varies least from seed to seed (n = 4
# with e > 1, n = 6: 0.2-0.5 s) get five copies and make up most of a
# pass, so the median item lies inside that group; n = 4 with e = 1 and
# n = 5 (0.05-0.35 s, the cost depends on where the scan first finds a
# fundamental stratum) get two.
SHAPES = [
    (1, 1, 2, 2), (2, 2, 3, 2), (3, 1, 2, 2), (3, 3, 1, 2),
    (4, 1, 1, 2), (4, 1, 2, 2), (4, 1, 3, 2), (4, 1, 4, 2),
    (5, 1, 1, 2), (5, 1, 2, 2), (5, 1, 3, 2),
    (4, 2, 1, 5), (4, 2, 3, 5), (4, 2, 5, 5), (4, 4, 1, 5), (4, 4, 3, 5), (4, 4, 5, 5),
    (6, 1, 1, 5), (6, 1, 2, 5), (6, 1, 3, 5),
]
# Ranks of the criterion-1 style random matrices; each costs up to 1 s
# of Katz-oracle checking after the timed passes.
RANDOM_RANKS = [2, 3, 3, 4, 4]

# Fault (b): fundamental_stratum raises "slope descent did not
# terminate" after 64 rounds on n = 5, 6 with e > 1; even the ungauged
# realization of an (e, m) = (3, 2) type fails.  Built from a fixed
# seed, so every pass holds the same failing items.
FAULT_B = [((6, 3, 1), False), ((5, 5, 2), True)]
FAULT_B_SEED = 1004


class Workload:
    name = "slope"

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.items = []
        for n, e, r, copies in SHAPES:
            for _ in range(copies):
                ft = random_formal_type(rng, n, e, r, Q)
                conn = shear_gauged(rng, realization(ft))
                self._add("n%d-e%d-r%d" % (n, e, r), conn, Fraction(r, e))
        for n in RANDOM_RANKS:
            depth = rng.randint(1, 6)
            while True:
                m = random_matrix(rng, n, lo=-depth, hi=2,
                                  density=rng.choice([0.35, 0.6, 0.85]))
                if not m.is_zero():
                    break
            self._add("random-n%d" % n, connections.FormalConnection(m), None)
        fixed = random.Random(FAULT_B_SEED)
        for (n, e, r), gauged in FAULT_B:
            ft = random_formal_type(fixed, n, e, r, Q)
            conn = realization(ft)
            if gauged:
                conn = shear_gauged(fixed, conn)
            self._add("n%d-e%d-r%d%s" % (n, e, r, "" if gauged else "-ungauged"),
                      conn, Fraction(r, e), fault="b")

    def _add(self, label, conn, want, fault=None):
        self.items.append(Item(len(self.items), label, (conn, want), fault))

    def warm_up(self):
        ft = random_formal_type(random.Random(7), 2, 2, 1, Q)
        connections.slope(shear_gauged(random.Random(7), realization(ft)))

    def run(self, item):
        return connections.slope(item.payload[0])

    def check(self, item, got):
        conn, want = item.payload
        if want is None:
            want = katz_slope_oracle(conn)
        if got != want:
            return False, "slope %s != expected %s" % (got, want)
        return True, ""

    @staticmethod
    def same_output(a, b):
        return a == b

    def corruptions(self, item, got):
        return [("slope off by 1/e", got + Fraction(1, got.denominator))]
