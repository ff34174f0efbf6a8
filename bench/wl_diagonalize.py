"""Workload ``diagonalize``: criterion-4 style inputs through the whole
splitting stack.

Each item is a seeded regular formal type of a fixed shape, realized as
d + A dt/t and gauged by a seeded unit 1 + O(t); the timed operation is
``diagonalize(conn, digits=depth + 3)``.
"""

import random

from common import (QI, Item, Q, gauge_transform, random_formal_type,
                    same_formal_type, torus_degree_exceeds, unit_gauged)
from formalconn import connections

# (n, e, depth, field): every n <= 4 with each e | n, depths up to 5,
# four shapes over Q(i).  Each shape appears COPIES times with different
# seeded coefficients, so a pass holds enough distinct items for its
# totals and median to be steady from seed to seed.  n = 4 shapes at
# depth >= 2 with e < 4 and Q(i) shapes with n = 3, e = 1 (2-5 s each)
# are left out to keep a pass near 16 s.
SHAPES = [
    (1, 1, 0, Q), (1, 1, 3, QI), (1, 1, 5, Q),
    (2, 1, 1, Q), (2, 1, 1, QI), (2, 1, 3, Q), (2, 1, 5, Q),
    (2, 2, 1, Q), (2, 2, 1, QI), (2, 2, 3, Q), (2, 2, 5, Q),
    (3, 1, 1, Q), (3, 1, 2, Q), (3, 3, 1, Q), (3, 3, 1, QI), (3, 3, 2, Q), (3, 3, 4, Q),
    (3, 3, 5, Q),
    (4, 1, 1, Q), (4, 2, 1, Q), (4, 4, 1, Q), (4, 4, 3, Q), (4, 4, 5, Q),
]
COPIES = 3

# Fault (a): depth-0 inputs of rank >= 2.  _solve_resonant_level divides
# by lam_i - lam_j - m where the gauge 1 + X t^m moves the t^m
# coefficient by (lam_j - lam_i - m) x_ij, so the returned gauge leaves
# the t^1 term in place and the residual check fails.  These inputs are
# built from a fixed seed, so every pass holds the same failing items.
FAULT_A_SHAPES = [(2, 1, 0, Q), (3, 1, 0, Q)]
FAULT_A_SEED = 1004


class Workload:
    name = "diagonalize"

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        fixed = random.Random(FAULT_A_SEED)
        self.items = []
        for shapes, gen, fault in ((SHAPES * COPIES, rng, None), (FAULT_A_SHAPES, fixed, "a")):
            for n, e, r, field in shapes:
                ft = random_formal_type(gen, n, e, r, field)
                conn = unit_gauged(gen, ft)
                label = "n%d-e%d-r%d-%s" % (n, e, r, field.name)
                self.items.append(Item(len(self.items), label, (ft, conn), fault))

    def warm_up(self):
        """Fill the lazy sympy import and its per-field domain caches."""
        for field in (Q, QI):
            ft = random_formal_type(random.Random(7), 2, 1, 1, field)
            connections.diagonalize(unit_gauged(random.Random(7), ft), digits=4)

    def run(self, item):
        ft, conn = item.payload
        return connections.diagonalize(conn, digits=ft.depth + 3)

    def check(self, item, res):
        """(ok, reason): the recovered type equals the built one, and
        gauge . input - realization(A_rep) lies beyond ``digits``."""
        ft, conn = item.payload
        if not same_formal_type(res.formal_type, ft):
            return False, "formal type %r != built %r" % (res.formal_type, ft)
        digits = ft.depth + 3
        resid = gauge_transform(res.gauge, conn).matrix - res.A_rep.realization()
        if not torus_degree_exceeds(resid, ft.e, digits):
            return False, "residual not beyond filtration degree %d" % digits
        return True, ""

    @staticmethod
    def same_output(a, b):
        return same_formal_type(a.formal_type, b.formal_type) and \
            a.gauge.to_json() == b.gauge.to_json()

    def corruptions(self, item, res):
        """Answers a correct checker must reject: one perturbed
        coefficient of the formal type, and of the toral representative."""
        ft = res.formal_type
        coeffs = [list(row) for row in ft.coeffs]
        coeffs[0][-1] = coeffs[0][-1] + 1
        bad_type = type(ft)(ft.torus, ft.depth, coeffs, ft.field)
        a_rep = res.A_rep
        blocks = [dict(b) for b in a_rep.coeffs]
        blocks[0][0] = blocks[0].get(0, 0) + 1
        bad_rep = type(a_rep)(a_rep.torus, blocks, a_rep.prec)
        return [
            ("perturbed formal-type coefficient", type(res)(res.gauge, res.A_rep, bad_type)),
            ("perturbed A_rep coefficient", type(res)(res.gauge, bad_rep, ft)),
        ]
