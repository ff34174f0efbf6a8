"""CLI driver: commands, exit codes, deterministic output."""

import json
import os
import subprocess
import sys

import pytest

from formalconn.cli import main
from formalconn.connections import FormalConnection, gauge_transform
from formalconn.matrices import LaurentMatrix
from formalconn.parahoric import filtration_degree
from formalconn.scalars import get_field, parse_scalar
from formalconn.series import default_precision, set_default_precision
from formalconn.torus import ToralElement, TorusData

DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_slope_witten(capsys):
    code, out, _ = run_cli(capsys, "slope", os.path.join(DATA, "witten.conn.json"))
    assert code == 0 and out.strip() == "3/2"


def test_slope_regular_singular(capsys):
    code, out, _ = run_cli(capsys, "slope",
                           os.path.join(DATA, "regular_singular.conn.json"))
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize("prec", ["0", "3"])
def test_prec_below_floor_suggests_floor(capsys, prec):
    # --prec 0 is a window like any other, not a missing option
    before = default_precision()
    code, out, err = run_cli(capsys, "slope", os.path.join(DATA, "witten.conn.json"),
                             "--prec", prec)
    assert default_precision() == before
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "INSUFFICIENT_PRECISION"
    assert payload["suggested_precision"] == 4


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.conn.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "slope", str(bad))
    assert code == 2


@pytest.mark.parametrize("doc", [
    {"n": 2, "matrix": [[[], 5], [[], []]]},            # entry is not a term list
    [1, 2],                                             # top level is not an object
    {"n": 2, "matrix": [[[], []], [[]]]},               # row of the wrong length
    {"n": 1, "matrix": [[[[0, "abc"]]]]},               # non-numeric coefficient
    {"n": 1, "nu": {"coeffs": []}, "matrix": [[[[-2, "1/1"]]]]},   # zero one-form
    {"n": 1, "field": "Q(zeta_0)", "matrix": [[[[-2, "1/1"]]]]},
    {"n": 1, "field": "Q(zeta_-3)", "matrix": [[[[-2, "1/1"]]]]},
])
def test_malformed_connection_exit_2(tmp_path, capsys, doc):
    bad = tmp_path / "bad.conn.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "slope", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "PARSE_ERROR"


@pytest.mark.parametrize("field", ["Q(zeta_30030)", "Q(zeta_9240)", "Q(zeta_" + "9" * 6000 + ")"])
def test_oversized_cyclotomic_field_exit_2(tmp_path, capsys, field):
    doc = {"n": 1, "field": field, "matrix": [[[[-2, "1/1"]]]]}
    f = tmp_path / "big.conn.json"
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "slope", str(f))
    assert code == 2 and out == "" and "PARSE_ERROR" in err
    code, _, err = run_cli(capsys, "slope", "--field", field,
                           os.path.join(DATA, "witten.conn.json"))
    assert code == 2 and "PARSE_ERROR" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "slope", "/nonexistent/file.json")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["diagonalize", "witten.conn.json", "--digits", "-3"],
    ["isomorphic", "witten.conn.json", "witten.conn.json", "--digits", "-1"],
    ["moduli", "two_points.moduli.json", "--digits", "-5"],
])
def test_negative_digits_exit_2(capsys, argv):
    argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "PARSE_ERROR"


@pytest.mark.parametrize("command", ["slope", "diagonalize"])
def test_nu_flag_rewrites_the_one_form_only(capsys, command):
    """--nu re-expresses the connection against another one-form, which
    changes neither the slope nor the formal type; an unknown one-form
    is a parse error."""
    path = os.path.join(DATA, "witten.conn.json")
    code, plain, _ = run_cli(capsys, command, path)
    assert code == 0 and plain
    for nu in ("dt", "dt/t", "dt/t^2"):
        assert run_cli(capsys, command, path, "--nu", nu) == (0, plain, "")
    code, out, err = run_cli(capsys, command, path, "--nu", "dx")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "PARSE_ERROR"


def test_matrix_read_against_dt_without_nu(tmp_path, capsys):
    """With no nu in the file, nabla = d + M dt (nu = dt/t is only the
    form it is expressed against): t^-3 dt is t^-2 dt/t, of slope 2."""
    f = tmp_path / "no_nu.conn.json"
    f.write_text(json.dumps({"n": 1, "field": "Q", "matrix": [[[[-3, "1/1"]]]]}))
    code, out, _ = run_cli(capsys, "slope", str(f))
    assert code == 0 and out.strip() == "2"


def test_analyze_witten(capsys):
    code, out, _ = run_cli(capsys, "analyze", os.path.join(DATA, "witten.conn.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["slope"] == "3/2" and doc["e"] == 2 and doc["r"] == 3
    assert doc["pure"] is True and doc["regular"] is True


def test_analyze_decides_repeated_eigenvalue_over_nonsplit_field(tmp_path, capsys):
    """d + t^-1 blockdiag(I_2, [[0, 2], [1, 0]]) dt/t over Q (the file
    holds the coefficient of dt): y has the eigenvalue 1 twice at e = 1,
    so the stratum is not regular, although the other eigenvalues
    +-sqrt(2) do not lie in Q."""
    def entry(c):
        return [[-2, c]] if c else []

    rows = [["1", 0, 0, 0], [0, "1", 0, 0], [0, 0, 0, "2"], [0, 0, "1", 0]]
    path = tmp_path / "repeated.conn.json"
    path.write_text(json.dumps({"field": "Q", "n": 4,
                                "matrix": [[entry(c) for c in row] for row in rows]}))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["slope"] == "1" and doc["phi"] == "(1/1)*X^4 + (-2/1)*X^3 + (-1/1)*X^2 + " \
        "(4/1)*X + -2/1"
    assert doc["regular"] is False
    assert doc["regular_failure"] == "an eigenvalue of y has multiplicity other than e = 1"
    code, out, err = run_cli(capsys, "diagonalize", str(path))
    assert code == 5 and out == ""
    assert "multiplicity other than e = 1" in err


def test_diagonalize_witten(capsys):
    code, out, _ = run_cli(capsys, "diagonalize", "--digits", "5",
                           os.path.join(DATA, "witten.conn.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["formal_type"] == {"e": 2, "m": 1, "r": 3,
                                  "coeffs": [["1/1", "0/1", "0/1", "0/1"]]}
    assert doc["valid"] is True


def test_isomorphic_same_file(capsys):
    f = os.path.join(DATA, "witten.conn.json")
    code, out, _ = run_cli(capsys, "isomorphic", f, f)
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert doc["witness"] == {"perm": [0], "galois": [0], "translation": [0]}


def test_isomorphic_different_slopes(capsys):
    code, out, _ = run_cli(capsys, "isomorphic",
                           os.path.join(DATA, "witten.conn.json"),
                           os.path.join(DATA, "regular_singular.conn.json"))
    assert code == 0
    assert json.loads(out)["isomorphic"] is False


def test_nonregular_exit_5(tmp_path, capsys):
    doc = {"schema_version": 1, "n": 2, "field": "Q",
           "nu": {"order": -1, "coeffs": [[-1, "1/1"]]},
           "matrix": [[[], [[0, "1/1"]]], [[], []]]}
    f = tmp_path / "nilres.conn.json"
    f.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "diagonalize", str(f))
    assert code == 5
    assert "NOT_REGULAR" in err or "NONSPLIT" in err


def test_moduli_command(tmp_path, capsys):
    cfg = {
        "entries": [
            {"point": "0",
             "part": [[[[-2, "1/1"], [-1, "1/1"]], []],
                      [[], [[-2, "-2/1"], [-1, "-1/1"]]]],
             "formal_type": {"e": 1, "m": 2, "r": 1,
                             "coeffs": [["1/1", "1/1"], ["-2/1", "-1/1"]]},
             "framing": [["1/1", "0/1"], ["0/1", "1/1"]]},
            {"point": "1",
             "part": [[[[-1, "-1/1"]], []], [[], [[-1, "1/1"]]]]},
        ]
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "moduli", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["moment_map"] == [["0/1", "0/1"], ["0/1", "0/1"]]
    dims = doc["points"][0]["dimensions"]
    assert dims["dim_M_tilde"] - dims["dim_M"] == 4
    assert doc["points"][0]["framing_ok"] is True


def test_moduli_residue_violation_exit_4(tmp_path, capsys):
    cfg = {"entries": [
        {"point": "0", "part": [[[[-1, "1/1"]]]]},
        {"point": "1", "part": [[[[-1, "1/1"]]]]},
    ]}
    f = tmp_path / "bad_cfg.json"
    f.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "moduli", str(f))
    assert code == 4
    assert "RESIDUE_NONZERO" in err


def test_deterministic_output_bytes(capsys):
    f = os.path.join(DATA, "witten.conn.json")
    _, out1, _ = run_cli(capsys, "analyze", f)
    _, out2, _ = run_cli(capsys, "analyze", f)
    assert out1 == out2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "formalconn.cli", "slope",
         os.path.join(DATA, "witten.conn.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "3/2"


def test_field_flag_qi(tmp_path, capsys):
    doc = {"schema_version": 1, "n": 2, "field": "Q(i)",
           "nu": {"order": -1, "coeffs": [[-1, "1/1"]]},
           "matrix": [[[[-1, "1/1*i"]], []], [[], [[-1, "-1/1*i"]]]]}
    f = tmp_path / "qi.conn.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "diagonalize", str(f))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["formal_type"]["e"] == 1 and parsed["formal_type"]["m"] == 2


def test_truncated_window_suggests_precision(tmp_path, capsys):
    """A one-form that is not a monomial leaves the matrix known only to
    the --prec window; the split then cannot certify its level, and the
    error suggests a --prec that gives the split the digits it lacks.
    The split checks the window of every level it reads before it clears
    any, so here one suggestion suffices."""
    doc = {"n": 2, "field": "Q", "nu": {"coeffs": [[-1, "1/1"], [0, "1/1"]]},
           "matrix": [[[[-2, "1/1"]], [[-1, "1/1"]]], [[[-1, "1/1"]], [[-2, "2/1"]]]]}
    f = tmp_path / "truncated.conn.json"
    f.write_text(json.dumps(doc))
    before = default_precision()
    prec, suggested = 4, []
    try:
        for _ in range(5):
            code, _, err = run_cli(capsys, "diagonalize", str(f), "--prec", str(prec),
                                   "--digits", "6")
            if code == 0:
                break
            assert code == 3
            payload = json.loads(err)
            assert payload["error"] == "INSUFFICIENT_PRECISION"
            assert payload["suggested_precision"] > prec
            prec = payload["suggested_precision"]
            suggested.append(prec)
    finally:
        set_default_precision(before)
    assert code == 0
    assert suggested == [8]


def test_short_window_slope_suggests_precision(tmp_path, capsys):
    """A nilpotent leading term whose kernel-flag gauge cancels an entry
    down to its window: at --prec 4 and 5 the descent finds no chain
    that keeps every window above the leading term, and the error
    suggests a --prec that gives the round one; following the
    suggestions reaches the slope that a long window gives."""
    doc = {"n": 2, "field": "Q", "nu": {"coeffs": [[-1, "1/1"], [0, "1/1"]]},
           "matrix": [[[[-4, "1/1"], [-3, "1/2"], [0, "-3/2"], [1, "-2/1"]],
                       [[-4, "1/1"], [-3, "1/2"], [0, "-1/2"]]],
                      [[[-4, "-1/1"], [-3, "-1/2"], [0, "-1/2"], [1, "2/1"]],
                       [[-4, "-1/1"], [-3, "-1/2"], [0, "-3/2"]]]]}
    f = tmp_path / "short_slope.conn.json"
    f.write_text(json.dumps(doc))
    before = default_precision()
    try:
        code, want, _ = run_cli(capsys, "slope", str(f), "--prec", "24")
        assert code == 0
        for start in (4, 5):
            prec, suggested = start, []
            for _ in range(5):
                code, out, err = run_cli(capsys, "slope", str(f), "--prec", str(prec))
                if code == 0:
                    break
                assert code == 3
                payload = json.loads(err)
                assert payload["error"] == "INSUFFICIENT_PRECISION"
                assert payload["suggested_precision"] > prec
                prec = payload["suggested_precision"]
                suggested.append(prec)
            assert code == 0 and out == want
            assert suggested == [6]
    finally:
        set_default_precision(before)


def test_short_off_block_window_suggests_precision(tmp_path, capsys):
    """A rank-3 split at depth 2 whose leading term is known but whose
    off-blocks are known only to the --prec window: the level loop
    raises before it clears a level, with a suggested --prec above the one
    given, and following the suggestions gives the type that a long
    window gives."""
    doc = {"n": 3, "field": "Q", "nu": {"coeffs": [[-1, "1/1"], [1, "1/2"]]},
           "matrix": [[[[-3, "1/1"]], [[-2, "1/1"]], [[-1, "3/1"]]],
                      [[[-2, "2/1"]], [[-3, "2/1"], [-1, "1/1"]], [[-2, "-1/1"]]],
                      [[[0, "1/1"]], [[-2, "1/2"]], [[-3, "-1/1"]]]]}
    f = tmp_path / "short_off_block.conn.json"
    f.write_text(json.dumps(doc))
    before = default_precision()
    prec, messages = 4, []
    try:
        code, out, _ = run_cli(capsys, "diagonalize", str(f), "--prec", "12", "--digits", "5")
        assert code == 0
        want = json.loads(out)["formal_type"]
        for _ in range(5):
            code, out, err = run_cli(capsys, "diagonalize", str(f), "--prec", str(prec),
                                     "--digits", "5")
            if code == 0:
                break
            assert code == 3
            payload = json.loads(err)
            assert payload["suggested_precision"] > prec
            prec = payload["suggested_precision"]
            messages.append(payload["message"])
    finally:
        set_default_precision(before)
    assert code == 0 and json.loads(out)["formal_type"] == want
    assert messages and messages[0].startswith("diagonalization needs the matrix below level")


@pytest.mark.parametrize("prec", [4, 5])
def test_short_window_pure_block_answers_or_suggests_precision(tmp_path, capsys, prec):
    """A one-form that is not a monomial leaves a pure block known only to
    the --prec window.  A short window either still certifies the type --
    the --prec 8 one, by a gauge whose residual against the connection
    lies beyond --digits -- or asks for more precision; it is never
    reported as NOT_REGULAR."""
    doc = {"n": 2, "field": "Q", "nu": {"coeffs": [[-1, "1/1"], [0, "1/1"]]},
           "matrix": [[[[0, "1/1"], [3, "1/1"]], [[-3, "1/1"]]], [[[-2, "1/1"]], [[1, "1/1"]]]]}
    f = tmp_path / "short.conn.json"
    f.write_text(json.dumps(doc))
    before = default_precision()
    try:
        code8, out8, _ = run_cli(capsys, "diagonalize", str(f), "--prec", "8", "--digits", "6")
        code, out, err = run_cli(capsys, "diagonalize", str(f), "--prec", str(prec),
                                 "--digits", "6")
    finally:
        set_default_precision(before)
    assert code8 == 0
    if code == 3:
        payload = json.loads(err)
        assert payload["error"] == "INSUFFICIENT_PRECISION"
        assert payload["suggested_precision"] > prec
        return
    assert code == 0
    got = json.loads(out)
    assert got["formal_type"] == json.loads(out8)["formal_type"]
    q = get_field("Q")
    rep = got["A_rep"]
    torus = TorusData(rep["e"], rep["m"])
    a_rep = ToralElement(torus, [{d: parse_scalar(c, q) for d, c in blk}
                                 for blk in rep["blocks"]])
    gauge = LaurentMatrix.from_json(got["gauge"], q)
    conn = FormalConnection.from_json(doc).standardized()
    resid = gauge_transform(gauge, conn).matrix - a_rep.realization()
    assert filtration_degree(resid, torus.context(), stop_at=7) > 6
