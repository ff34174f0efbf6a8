"""Seeded CLI fuzzing: corrupted copies of the files in tests/data, run
through every subcommand in process, must end in a README exit code and
never in a Python exception."""

import copy
import json
import os
import random

import pytest

from formalconn.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
# Pinned rather than listed from DATA, so that the case ids and their
# draws stay fixed: a data file added later gets its own seeded cases
# instead of reshuffling these.
NAMES = ["regular_singular.conn.json", "two_points.moduli.json", "witten.conn.json"]
SEED = 20261018
CASES = 150
EXIT_CODES = (0, 2, 3, 4, 5)

ODD_VALUES = [None, True, 0, -1, 1.5, "x", "", [], {}, [1], {"a": 1}, 10 ** 30, "1/0"]
ODD_FIELDS = ["Q(zeta_0)", "Q(zeta_1)", "Q(zeta_2)", "R", "", 5, None, "Q(zeta_7)",
              "Q(zeta_105)", "Q(i", "Q(zeta_10001)"]
ODD_EXPONENTS = [10 ** 9, -10 ** 9, -1001, -1000, -60, 1.5, "3", True, None, 2 ** 70, -2 ** 70, 40]


def _paths(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _exponent_paths(doc):
    """Paths of the exponents of [exponent, coefficient] series terms."""
    return [p for p in _paths(doc) if p and p[-1] == 0 and len(p) >= 2
            and isinstance(_at(doc, p[:-1]), list) and len(_at(doc, p[:-1])) == 2
            and type(_at(doc, p)) is int]


def _corrupt(rng, text):
    """(kind, corrupted text) for one seeded corruption of a JSON file."""
    doc = json.loads(text)
    kind = rng.choice(["truncate", "swap", "drop", "field", "exponent"])
    if kind == "truncate":
        return kind, text[:rng.randrange(len(text))]
    doc = copy.deepcopy(doc)
    if kind == "swap":
        doc = _replace(doc, rng.choice(list(_paths(doc))), rng.choice(ODD_VALUES))
    elif kind == "drop":
        owners = [p for p in _paths(doc) if isinstance(_at(doc, p), dict) and _at(doc, p)]
        owner = _at(doc, rng.choice(owners))
        del owner[rng.choice(sorted(owner))]
    elif kind == "field":
        doc["field"] = rng.choice(ODD_FIELDS)
    else:
        exps = _exponent_paths(doc)
        doc = _replace(doc, rng.choice(exps), rng.choice(ODD_EXPONENTS))
    return kind, json.dumps(doc)


def _cases():
    rng = random.Random(SEED)
    texts = {}
    for name in NAMES:
        with open(os.path.join(DATA, name)) as fh:
            texts[name] = fh.read()
    out = []
    for idx in range(CASES):
        name = NAMES[idx % len(NAMES)]
        kind, text = _corrupt(rng, texts[name])
        out.append(pytest.param(name, text, id="%02d-%s-%s" % (idx, kind, name.split(".")[0])))
    return out


@pytest.mark.parametrize("name,text", _cases())
def test_corrupted_file_gets_an_exit_code(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    original = os.path.join(DATA, name)
    for argv in (["slope", str(path)], ["analyze", str(path)],
                 ["diagonalize", "--digits", "4", str(path)],
                 ["isomorphic", "--digits", "4", str(path), original],
                 ["moduli", str(path)]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in EXIT_CODES, argv
        if code:
            assert "error" in json.loads(err.splitlines()[-1]), argv


@pytest.mark.parametrize("matrix", [
    [[[[-10 ** 9, "1/2"]], [[0, "1/1"]]], [[], [[-1, "-1/3"]]]],
    [[[[-1, "1/2"]], [[0, "1/1"]]], [[], [[-10 ** 9, "-1/3"]]]],
    [[[[-10 ** 9, "1/2"], [-5, "1/1"]]]],
])
def test_huge_depth_is_refused(tmp_path, capsys, matrix):
    # a pole of order 10^9 parses; the regularity test refuses its depth
    doc = {"schema_version": 1, "n": len(matrix), "field": "Q", "matrix": matrix}
    f = tmp_path / "deep.conn.json"
    f.write_text(json.dumps(doc))
    for cmd in ("analyze", "diagonalize"):
        assert main([cmd, str(f)]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "UNSUPPORTED_DEPTH"
