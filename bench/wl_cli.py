"""Workload ``cli``: one ``python -m formalconn.cli`` process per item,
one process at a time, as a command-line user would wait for it.

Set-up writes every input file.  A pass runs a fixed mix of 20 commands
on seeded files with n <= 3, so the mix of start-up paths is the same
for every seed: 7 calls that never import sympy (3 slope, 3 moduli, and
an isomorphic pair whose slopes differ) and 13 that do (3 analyze,
7 diagonalize, 3 isomorphic pairs built with a Weyl element).  The
median call lies inside the diagonalize group, whose cost is mostly the
sympy import.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

from common import (BENCH_DIR, ROOT, SRC_DIR, Item, Q, constant_invertible,
                    random_formal_type, realization, shear_gauged, sort_key,
                    unit_gauged)
from formalconn.formal_types import FormalType
from formalconn.matrices import LaurentMatrix
from formalconn.scalars import format_scalar
from formalconn.series import LaurentScalar

CHILD = os.path.join(BENCH_DIR, "cli_child.py")

SLOPE_SHAPES = [(2, 2, 1), (3, 3, 2), (3, 1, 1)]
ANALYZE_SHAPES = [(2, 1, 2), (3, 3, 1), (3, 1, 1)]
DIAGONALIZE_SHAPES = [(2, 2, 1), (2, 2, 3), (2, 2, 5), (2, 1, 1), (2, 1, 2), (3, 3, 1),
                      (3, 3, 2)]
WEYL_SHAPES = [(2, 1, 2), (2, 2, 1), (3, 3, 1)]
SLOPE_PAIR = [(2, 1, 1), (3, 3, 1)]
MODULI_SHAPES = [[(2, 1, 1), (2, 1, 0)], [(3, 3, 1)], [(3, 1, 2)]]


class Workload:
    name = "cli"

    def __init__(self, seed, workdir):
        self.dir = workdir
        os.makedirs(self.dir, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        rng = random.Random(seed)
        self.items = []
        for n, e, r in SLOPE_SHAPES:
            ft = random_formal_type(rng, n, e, r, Q)
            path = self._write(shear_gauged(rng, realization(ft)))
            self._add("slope", [path], {"slope": Fraction(r, e)})
        for n, e, r in ANALYZE_SHAPES:
            ft = random_formal_type(rng, n, e, r, Q)
            self._add("analyze", [self._write(unit_gauged(rng, ft))], {"slope": Fraction(r, e)})
        for n, e, r in DIAGONALIZE_SHAPES:
            ft = random_formal_type(rng, n, e, r, Q)
            self._add("diagonalize", ["--digits", str(r + 3), self._write(unit_gauged(rng, ft))],
                      {"formal_type": ft})
        for n, e, r in WEYL_SHAPES:
            ft = random_formal_type(rng, n, e, r, Q)
            moved, witness = weyl_move(rng, ft)
            files = [self._write(unit_gauged(rng, t)) for t in (moved, ft)]
            self._add("isomorphic", ["--digits", str(r + 3)] + files,
                      {"isomorphic": True, "witness": witness})
        files = [self._write(unit_gauged(rng, random_formal_type(rng, n, e, r, Q)))
                 for n, e, r in SLOPE_PAIR]
        self._add("isomorphic", files, {"isomorphic": False})
        for shapes in MODULI_SHAPES:
            cfg, types = moduli_config(rng, shapes)
            self._add("moduli", [self._write_json(cfg)], {"types": types})

    def _write_json(self, doc):
        path = os.path.join(self.dir, "in%02d.json" % len(os.listdir(self.dir)))
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _write(self, conn):
        return self._write_json(conn.to_json())

    def _add(self, command, args, want):
        self.items.append(Item(len(self.items), command, ([command] + args, want)))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- running ------------------------------------------------------------

    def spawn(self, argv, err_path):
        """Run one child to its end; returns (exit code, stdout, peak RSS
        in KiB of that child)."""
        with open(err_path, "w") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    cwd=ROOT, env=self.env)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode(), usage.ru_maxrss

    def warm_up(self):
        """Fill the OS file cache and the bytecode caches of both start-up
        paths: a slope call (no sympy) and an analyze call (sympy)."""
        for item in (self.items[0], self.items[len(SLOPE_SHAPES)]):
            self.spawn([sys.executable, "-m", "formalconn.cli"] + item.payload[0],
                       os.path.join(self.dir, "warm.err"))

    def run(self, item):
        return self.spawn([sys.executable, "-m", "formalconn.cli"] + item.payload[0],
                          os.path.join(self.dir, "item.err"))

    def run_traced(self, item, spans_path):
        """The item under ``python -X importtime`` through cli_child.py.
        Returns ((code, stdout, rss), child stats)."""
        err_path = os.path.join(self.dir, "traced.err")
        spawned = time.time()
        result = self.spawn([sys.executable, "-X", "importtime", CHILD, spans_path,
                             str(item.id)] + item.payload[0], err_path)
        with open(spans_path) as fh:
            child = json.load(fh)
        with open(err_path) as fh:
            imports = import_times(fh.read())
        child["interpreter_ms"] = (child["started"] - spawned) * 1e3
        child["import_ms"] = imports.get("formalconn.cli", 0.0)
        child["sympy_ms"] = imports.get("sympy")
        return result, child

    # -- checks -------------------------------------------------------------

    def check(self, item, result):
        code, out, _ = result
        if code != 0:
            return False, "exit code %d" % code
        want = item.payload[1]
        try:
            if item.label == "slope":
                got = Fraction(out.strip())
                return got == want["slope"], "slope %s != %s" % (got, want["slope"])
            doc = json.loads(out)
            if item.label == "analyze":
                got = Fraction(doc["slope"])
                return got == want["slope"], "analyze slope %s != %s" % (got, want["slope"])
            if item.label == "diagonalize":
                return same_type_json(doc["formal_type"], want["formal_type"]), \
                    "formal type %s != built %r" % (doc["formal_type"], want["formal_type"])
            if item.label == "isomorphic":
                if doc["isomorphic"] is not want["isomorphic"]:
                    return False, "isomorphic %s" % doc["isomorphic"]
                if want["isomorphic"] and doc["witness"] != want["witness"]:
                    return False, "witness %s != built %s" % (doc["witness"], want["witness"])
                return True, ""
            return check_moduli(doc, want["types"])
        except (ValueError, KeyError, TypeError) as exc:
            return False, "unreadable output: %s" % exc

    @staticmethod
    def same_output(a, b):
        return a[:2] == b[:2]

    def corruptions(self, item, result):
        code, out, rss = result
        bad = [("nonzero exit code", (1, out, rss))]
        if item.label == "slope":
            got = Fraction(out.strip())
            bad.append(("slope off by 1/e",
                        (code, "%s\n" % (got + Fraction(1, got.denominator)), rss)))
        return bad


def import_times(stderr_text):
    """Cumulative import time (ms) per top-level entry of -X importtime."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out[parts[2].strip()] = int(parts[1]) / 1e3
    return out


def same_type_json(doc, ft):
    return (doc["e"], doc["m"], doc["r"]) == (ft.e, ft.m, ft.depth) and \
        [[Fraction(c) for c in row] for row in doc["coeffs"]] == ft.coeffs


def check_moduli(doc, types):
    if any(Fraction(c) != 0 for row in doc["moment_map"] for c in row):
        return False, "moment map %s is not zero" % doc["moment_map"]
    framed = [p for p in doc["points"] if "dimensions" in p]
    if len(framed) != len(types):
        return False, "%d framed points reported, %d built" % (len(framed), len(types))
    for point, m in zip(framed, types):
        dims = point["dimensions"]
        if point.get("framing_ok") is not True:
            return False, "framing_ok is not true at %s" % point["point"]
        if dims["dim_M_tilde"] - dims["dim_M"] != 2 * m:
            return False, "dim_M_tilde - dim_M != 2m at %s" % point["point"]
    return True, ""


# -- input builders ---------------------------------------------------------


def weyl_move(rng, ft):
    """A random affine Weyl element w over Q and the type w . ft with its
    blocks sorted, as in criterion 5; returns (moved type, witness JSON
    of the composed element).  The action is written out here: block j of
    the result is block perm^-1(j) with degree-d coefficients times
    (-1)^(g_j d) (e = 2 is the only e > 1 with roots of unity in Q) and
    the degree-0 coefficient lowered by transl_j / e."""
    m, e, r = ft.m, ft.e, ft.depth
    perm = list(range(m))
    rng.shuffle(perm)
    galois = [rng.randrange(e) if e <= 2 else 0 for _ in range(m)]
    transl = [rng.randint(-3, 3) for _ in range(m)]
    inv = [0] * m
    for j, p in enumerate(perm):
        inv[p] = j
    rows = []
    for j in range(m):
        row = [-c if galois[j] * (i - r) % 2 else c for i, c in enumerate(ft.coeffs[inv[j]])]
        row[-1] -= Fraction(transl[j], e)
        rows.append(row)
    order = sorted(range(m), key=lambda j: tuple(sort_key(c) for c in rows[j]))
    sigma = [0] * m
    for k, j in enumerate(order):
        sigma[j] = k
    moved = FormalType(ft.torus, r, [rows[j] for j in order], ft.field)
    witness = {"perm": [sigma[perm[s]] for s in range(m)],
               "galois": [0] * m, "translation": [0] * m}
    for j in range(m):
        witness["galois"][sigma[j]] = galois[j]
        witness["translation"][sigma[j]] = transl[j]
    return moved, witness


def moduli_config(rng, shapes):
    """Framed points 0, 1, ... carrying the given formal types, plus one
    unframed point whose residue cancels theirs.  The polar part at a
    framed point is g^-1 A g dz/z for the Cartan representative A and a
    random constant framing g, so g carries the local connection onto
    the stratum of the type.  Returns (config JSON, m of each type)."""
    n = shapes[0][0]
    entries, types = [], []
    residue_sum = [[Fraction(0)] * n for _ in range(n)]
    for point, (_, e, r) in enumerate(shapes):
        ft = random_formal_type(rng, n, e, r, Q)
        g, g_inv = constant_invertible(rng, n)
        part = (g_inv * ft.realization() * g).shift(-1)
        for i in range(n):
            for j in range(n):
                residue_sum[i][j] += part.rows[i][j].coeff_or_zero(-1)
        entries.append({"point": str(point), "part": part.to_json(),
                        "formal_type": ft.to_json(),
                        "framing": [[format_scalar(c.coeff_or_zero(0)) for c in row]
                                    for row in g.rows]})
        types.append(ft.m)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = {-1: -residue_sum[i][j], -2: Fraction(rng.randint(-3, 3))}
            row.append(LaurentScalar(coeffs))
        rows.append(row)
    entries.append({"point": "-2", "part": LaurentMatrix(rows).to_json()})
    return {"entries": entries}, types
