import json
import os
import subprocess
import sys

import jsonschema
import pytest

from projflow import lookup, zoo
from projflow.parser import (
    ParseError,
    parse_expr,
    parse_flow,
    parse_input,
    parse_vector_field,
    print_flow,
    print_vector_field,
)
from projflow.cli import main

SCHEMA = json.load(open(
    os.path.join(os.path.dirname(__file__), "..", "docs",
                 "report-schema.json")))


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def run_cli(*argv):
    # the child runs the same source tree as the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "projflow.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


# -- grammar ---------------------------------------------------------------

def test_grammar_round_trip_zoo():
    for entry in zoo():
        text = print_flow(entry.flow)
        again = parse_flow(text)
        assert again == entry.flow, entry.name


def test_vector_field_round_trip():
    for name in ("phi_pr", "phi_tor_1", "phi2_3"):
        vf = lookup(name).vf
        text = print_vector_field(vf)
        again = parse_vector_field(text)
        assert (again.w, again.r) == (vf.w, vf.r)


def test_parse_rejects_decimals():
    with pytest.raises(ParseError):
        parse_expr("0.5*x + y")


def test_parse_error_position():
    try:
        parse_flow("u = x*(y+1; v = y")
    except ParseError as e:
        assert e.line == 1 and e.column > 1
    else:
        raise AssertionError("expected ParseError")


def test_parse_nesting_limit():
    from projflow.parser import MAX_NESTING
    x = parse_expr("x")
    deep = MAX_NESTING
    assert parse_expr("(" * deep + "x" + ")" * deep) == x
    assert parse_expr("-" * deep + "x") == (x if deep % 2 == 0 else -x)
    assert parse_expr("x*(" * deep + "x" + ")" * deep) == x ** (deep + 1)
    deep += 1
    for text in ("(" * deep + "x" + ")" * deep, "-" * deep + "x",
                 "x*(" * deep + "x" + ")" * deep):
        with pytest.raises(ParseError):
            parse_expr(text)


def test_cli_deep_nesting_is_parse_error(capsys):
    deep = "(" * 2000 + "x" + ")" * 2000
    assert main(["classify", deep + ", y"]) == 2
    assert main(["verify", "u = %s; v = y" % deep]) == 2
    assert "nesting" in capsys.readouterr().err


def test_cli_classify_non_flows(capsys):
    # these satisfy the boundary condition, so they have a vector field
    for text in ("u = x*(y+1) + y^2; v = y/(y+1)",
                 "u = x*(y+1); v = y/(y+1)^2",
                 "u = x/(x+1)^2; v = y/(y+1)",
                 "u = x + x^2 + y^2; v = y + x*y",
                 "u = x/(1 - x); v = y/(1 - x + y^2)"):  # level 0 by its field
        assert main(["classify", text, "--json"]) == 1, text
        out = capsys.readouterr()
        assert "not a flow" in out.err and out.out == "", text
    # these fail it and are rejected as degenerate candidates
    for text in ("u = x/(x+y+1); v = y/(x+y+2)", "u = x*(y+2); v = y/(y+1)"):
        assert main(["classify", text, "--json"]) == 1, text
        out = capsys.readouterr()
        assert "not a flow" not in out.err and out.out == "", text


def test_parse_negative_exponent():
    f = parse_flow("u = x*(x+1)^-2; v = y/(y+1)")
    from projflow import Flow, Poly, RatFn
    X, Y = Poly.var(0, 2), Poly.var(1, 2)
    assert f == Flow(RatFn(X, (X + 1) ** 2), RatFn(Y, Y + 1))


def test_parse_input_dispatch():
    from projflow import Flow, VectorField
    assert isinstance(parse_input("u = x; v = y"), Flow)
    assert isinstance(parse_input("(x*y, -y^2)"), VectorField)


# -- CLI exit codes --------------------------------------------------------

def test_cli_exit_ok():
    code, out, _ = run_cli("verify", "u = x*(y+1); v = y/(y+1)")
    assert code == 0
    assert "true" in out.lower()


def test_cli_exit_parse_error():
    code, _, err = run_cli("parse", "u = 0.5*x; v = y")
    assert code == 2


def test_cli_exit_singular():
    code, _, err = run_cli("vf", "u = x; v = x")
    assert code == 3


def test_cli_exit_needs_rational_root():
    # cubic with an irrational factorization obstruction
    code, _, err = run_cli("classify", "(x^2 - 2*y^2 + x*y, -y^2 + x^2)")
    assert code in (0, 4)  # must not crash; 4 when a root is genuinely needed


# -- JSON reports ----------------------------------------------------------

def test_cli_json_schema_zoo_sample():
    for flow_text, _ in [
        ("u = x*(y+1); v = y/(y+1)", "phi_2"),
        ("u = x/(x+y+1); v = y/(x+y+1)", "phi_pr"),
        ("u = x/(x+1); v = y/(y+1)", "phi_tor_1"),
    ]:
        code, out, err = run_cli("classify", flow_text, "--json")
        assert code == 0, err
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)


def test_cli_json_non_rational():
    code, out, _ = run_cli("classify", "(x^2 - 2*x*y, -2*x*y + y^2)",
                           "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["verdict"] == "NonRationalGenus1"


def test_cli_json_determinism():
    runs = [run_cli("classify", "u = x*(y+1); v = y/(y+1)", "--json")[1]
            for _ in range(2)]
    assert runs[0] == runs[1]


# -- renders ---------------------------------------------------------------

def test_cli_csv_and_svg(tmp_path):
    csv_path = tmp_path / "field.csv"
    svg_path = tmp_path / "orbit.svg"
    code, out, err = run_cli(
        "orbit", "u = x*(y+1); v = y/(y+1)",
        "--point", "1", "1/2", "--grid", "21",
        "--csv", str(csv_path), "--svg", str(svg_path))
    assert code == 0, err
    csv1 = csv_path.read_text()
    assert csv1.splitlines()[0] == "x,y,w,r"
    svg1 = svg_path.read_text()
    assert svg1.startswith("<svg") or "<svg" in svg1
    # determinism
    run_cli("orbit", "u = x*(y+1); v = y/(y+1)",
            "--point", "1", "1/2", "--grid", "21",
            "--csv", str(csv_path), "--svg", str(svg_path))
    assert csv_path.read_text() == csv1
    assert svg_path.read_text() == svg1


def test_cli_series():
    code, out, _ = run_cli("series", "(x^2 - 2*x*y, -2*x*y + y^2)",
                           "--order", "9", "--direction", "1", "-1")
    assert code == 0
    assert "117/7" in out


def test_cli_zoo_and_symmetric():
    code, out, _ = run_cli("zoo")
    assert code == 0 and "phi_2" in out
    code, out, _ = run_cli("symmetric", "--N", "2", "--family", "Phi")
    assert code == 0


def test_cli_dual():
    code, out, _ = run_cli("dual", "u = x*(y+1); v = y/(y+1)")
    assert code == 0
    assert "x/(x + 1)" in out or "x/(1 + x)" in out
