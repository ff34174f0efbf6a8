"""Diagonalization and splitting outputs pinned byte for byte.

``tests/golden/diagonalize.golden.json`` holds, for seeded regular
formal types over Q, Q(i) and Q(zeta_3) (e in {1, 2, 3}, depth 0-3),
gauged by a seeded unit, the JSON of the gauge, of A_rep and of the
formal type that ``diagonalize`` returns, and the gauge's repr; and for
one ``split_connection`` call, the JSON and repr of its gauge and of
the split matrix.  A change that only makes these computations
faster must reproduce every entry exactly.

Regenerate the file (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os
from fractions import Fraction

from formalconn.connections import FormalConnection, diagonalize, gauge_transform, split_connection
from formalconn.formal_types import FormalType
from formalconn.scalars import get_field, sort_key
from formalconn.torus import TorusData

from helpers import random_unit_matrix, seeded

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "diagonalize.golden.json")

# (n, e, depth, field name, seed)
DIAGONALIZE_CASES = [
    (2, 1, 0, "Q", 11),
    (2, 1, 1, "Q", 12),
    (2, 2, 3, "Q", 13),
    (3, 3, 2, "Q", 14),
    (2, 2, 1, "Q(i)", 15),
    (2, 1, 2, "Q(i)", 16),
    (3, 3, 1, "Q(i)", 17),
    (2, 2, 1, "Q(zeta_3)", 18),
    (3, 3, 1, "Q(zeta_3)", 19),
]
SPLIT_CASE = (4, 2, 1, "Q(i)", 20)


def _coeff(rng, field, lo=-4, hi=4, den=2):
    """A seeded scalar: a rational over Q, else with a seeded coefficient
    of the generator too."""
    re, im = (Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(2))
    return re if field.degree == 1 else field.from_coords([re, im] + [0] * (field.degree - 2))


def regular_type(rng, n, e, r, field):
    """A regular formal type of shape (n, e, r) over ``field``: nonzero
    leading coefficients with pairwise distinct e-th powers (at depth
    zero, pairwise distinct modulo Z), rows sorted by their lead."""
    leads = []
    while len(leads) < n // e:
        lead = _coeff(rng, field, -6, 6, 3 if r else n + 1)
        if r == 0:
            fine = all(not _integral(lead - o) for o in leads)
        else:
            fine = lead != 0 and all(lead ** e != o ** e for o in leads)
        if fine:
            leads.append(lead)
    rows = sorted(([lead] + [_coeff(rng, field) for _ in range(r)] for lead in leads),
                  key=lambda row: sort_key(row[0]))
    return FormalType(TorusData(e, n // e), r, rows, field)


def _integral(x):
    coords = getattr(x, "coords", (x,))
    return all(c == 0 for c in coords[1:]) and Fraction(coords[0]).denominator == 1


def gauged(case):
    """(formal type, connection): the type's realization gauged by a
    seeded unit 1 + O(t)."""
    n, e, r, name, seed = case
    rng = seeded(seed)
    ft = regular_type(rng, n, e, r, get_field(name))
    conn = gauge_transform(random_unit_matrix(rng, n, depth=2), FormalConnection(ft.realization()))
    return ft, conn


def diagonalize_entry(case):
    ft, conn = gauged(case)
    res = diagonalize(conn, digits=ft.depth + 3)
    return {"case": list(case), "gauge": res.gauge.to_json(), "A_rep": res.A_rep.to_json(),
            "formal_type": res.formal_type.to_json(), "gauge_repr": repr(res.gauge)}


def split_entry(case):
    ft, conn = gauged(case)
    e, r = ft.e, ft.depth
    slots = [[j * e + k for k in range(e)] for j in range(ft.m)]
    p, out = split_connection(conn, ft.torus.context(), r, slots, digits=r + 4)
    return {"case": list(case), "gauge": p.to_json(), "gauge_repr": repr(p),
            "matrix": out.matrix.to_json(), "matrix_repr": repr(out.matrix)}


def golden():
    return {"diagonalize": [diagonalize_entry(c) for c in DIAGONALIZE_CASES],
            "split_connection": split_entry(SPLIT_CASE)}


def _canonical(doc):
    return json.dumps(doc, indent=1, sort_keys=True)


def test_diagonalize_outputs_match_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    assert len(want["diagonalize"]) == len(DIAGONALIZE_CASES)
    for case, entry in zip(DIAGONALIZE_CASES, want["diagonalize"]):
        assert _canonical(diagonalize_entry(case)) == _canonical(entry), case


def test_split_connection_outputs_match_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    assert _canonical(split_entry(SPLIT_CASE)) == _canonical(want["split_connection"])


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write(_canonical(golden()) + "\n")
