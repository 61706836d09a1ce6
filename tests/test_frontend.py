import json
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from projflow import lookup, zoo
from projflow.parser import (
    ParseError,
    _Lexer,
    _int_max_str_digits,
    parse_expr,
    parse_flow,
    parse_input,
    parse_vector_field,
    print_flow,
    print_vector_field,
)
from projflow.cli import build_parser, main

import parse_reference

SCHEMA = json.load(open(
    os.path.join(os.path.dirname(__file__), "..", "docs",
                 "report-schema.json")))


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _run_child(*argv):
    # the child runs the same source tree as the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*argv):
    return _run_child("-m", "projflow.cli", *argv)


# -- grammar ---------------------------------------------------------------

def test_grammar_round_trip_zoo():
    for entry in zoo():
        text = print_flow(entry.flow)
        again = parse_flow(text)
        assert again == entry.flow, entry.name


def test_vector_field_round_trip():
    fields = [lookup(name).vf for name in ("phi_pr", "phi_tor_1", "phi2_3")]
    # a denominator that is a product of variables is printed in parentheses
    fields.append(parse_vector_field(
        "((x^4 + y^4)/(x*y), (x^5 + y^5)/(x^2*y))"))
    for vf in fields:
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


def test_lexer_finds_positions_only_on_errors(monkeypatch):
    # a line and column cost a scan of the text before the token, so a
    # valid input, however many literals it has, computes none
    def spy(self, pos):
        raise AssertionError("position computed at %d" % pos)
    monkeypatch.setattr(_Lexer, "_loc", spy)
    parse_expr(" +\n".join("%d*x^%d" % (i, i % 7) for i in range(300)))
    parse_vector_field("(-1/2*x^2 - x*y + 1/2*y^2,\n 1/2*x^2 - x*y)")
    for entry in zoo():
        parse_flow(print_flow(entry.flow))
        parse_vector_field(print_vector_field(entry.vf))


_LEAVES = st.sampled_from(["x", "y", "0", "1", "2", "10", "1/x", "x/(y + 1)",
                           "(x - y)/(x + 2*y)"])


def _exprs(depth):
    """Expression texts of trees at most ``depth`` operators deep over
    leaves that include quotients: binary operators with and without
    parentheses, powers with small signed exponents and unary signs."""
    if not depth:
        return _LEAVES
    sub = _exprs(depth - 1)
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub, st.booleans()).map(
            lambda t: ("(%s %s %s)" if t[3] else "%s %s %s") % t[:3]),
        st.tuples(sub, st.integers(-3, 3)).map(lambda t: "(%s)^%d" % t),
        st.tuples(_LEAVES, st.integers(-3, 3)).map(lambda t: "%s^%d" % t),
        st.tuples(st.sampled_from("-+"), sub, st.booleans()).map(
            lambda t: ("%s(%s)" if t[2] else "%s%s") % t[:2]),
        _LEAVES)


@given(_exprs(5))
@example("x/(y - y)")
@example("(x - x)^-2")
@example("(0/(x + 1))^-1")
@example("(x/x)^-1 + (y/(x*y))^2")
@example("0^0 - x/2/3")
@settings(max_examples=300, deadline=None)
def test_parse_expr_matches_per_node_fold(text):
    # the pair fold with one reduction at the end gives the reduced RatFn
    # of a fold that reduces at every node, and the same errors
    try:
        want = parse_reference.parse_expr(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_expr(text)
        assert str(got.value) == str(exc)
        return
    assert parse_expr(text) == want


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
    for text in ("u = x/(x+y+1); v = y/(x+y+2)", "u = x*(y+2); v = y/(y+1)",
                 "u = 2*x; v = 2*y"):
        assert main(["classify", text, "--json"]) == 1, text
        out = capsys.readouterr()
        assert out.err == ("error: not a flow: the map fails the boundary "
                           "condition and has no degenerate form\n"), text
        assert out.out == "", text


def test_cli_classify_zero_field(capsys):
    assert main(["classify", "(0, 0)", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": "Identity"}


def test_cli_parser_keeps_no_state_between_calls(capsys):
    from projflow.cli import build_parser
    assert build_parser() is build_parser()
    text = "(x*y, -y^2)"
    assert main(["series", text, "--order", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 3
    assert main(["level", text]) == 0
    assert capsys.readouterr().out.startswith("level: Level(2)\n")
    assert main(["series", text]) == 0
    assert capsys.readouterr().out.startswith("order: 8\n")


def test_parse_negative_exponent():
    f = parse_flow("u = x*(x+1)^-2; v = y/(y+1)")
    from projflow import Flow, Poly, RatFn
    X, Y = Poly.var(0, 2), Poly.var(1, 2)
    assert f == Flow(RatFn(X, (X + 1) ** 2), RatFn(Y, Y + 1))


def test_parse_input_dispatch():
    from projflow import Flow, VectorField
    assert isinstance(parse_input("u = x; v = y"), Flow)
    assert isinstance(parse_input("(x*y, -y^2)"), VectorField)


@pytest.mark.parametrize("text", [
    "u = \u00b9; v = y",                    # a digit that int() rejects
    pytest.param("u = %s*x; v = y" % ("7" * (_int_max_str_digits() + 1)),
                 marks=pytest.mark.skipif(not _int_max_str_digits(),
                                          reason="int() has no digit limit")),
    "(x, x)",                                # not a 2-homogenic field
])
def test_parse_input_rejects_with_parse_error(text):
    # each of these once escaped as ValueError or a bare AlgebraError
    with pytest.raises(ParseError):
        parse_input(text)


# Tokens of the grammar and a few strays, joined by spaces so that integer
# literals stay one digit: the largest power within 12 tokens is then
# ((x+y)^9)^9, which the kernel builds in milliseconds.
_TOKENS = ("u", "v", "x", "y", "z", "=", ";", ",", "(", ")", "+", "-", "*",
           "/", "^", "0", "1", "2", "9", ".", "\n", "é", "u =", "; v =")


@given(st.one_of(
    st.text(max_size=16),
    st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join),
    st.lists(st.sampled_from(_TOKENS), max_size=10).map(
        lambda t: "u = %s; v = y" % " ".join(t)),
    st.lists(st.sampled_from(_TOKENS), max_size=10).map(
        lambda t: "(%s, x)" % " ".join(t))))
@settings(max_examples=300, deadline=2000)
def test_parse_input_returns_or_raises_parse_error(text):
    # on any text the parser gives a flow or a field, or a ParseError
    from projflow import Flow, VectorField
    try:
        result = parse_input(text)
    except ParseError:
        return
    assert isinstance(result, (Flow, VectorField))


# -- CLI exit codes --------------------------------------------------------

def test_cli_exit_ok():
    code, out, _ = run_cli("verify", "u = x*(y+1); v = y/(y+1)")
    assert code == 0
    assert "true" in out.lower()


def test_cli_verify_zero_flow():
    # the paper lists the zero map among the solutions
    code, out, err = run_cli("verify", "u = 0; v = 0")
    assert (code, err) == (0, "")
    assert out == "translation_equation: True\npde: True\n"


@pytest.mark.parametrize("text", ["u = 2*x; v = 2*y", "u = x^2; v = x^2"])
def test_cli_verify_non_boundary_non_flow(text):
    # the PDE route decides a map failing the boundary condition by its
    # degenerate form, so it agrees with the translation equation
    code, out, err = run_cli("verify", text)
    assert (code, err) == (0, "")
    assert out == "translation_equation: False\npde: False\n"


@pytest.mark.parametrize("argv", [["level", "u = x+y; v = y"],
                                  ["series", "u = 2*x; v = 2*y"],
                                  ["vf", "u = 2*x; v = 2*y"]])
def test_cli_non_boundary_map_has_no_field(capsys, argv):
    # a map failing the boundary condition with a nonzero Jacobian is no
    # flow, so it has no vector field to print or classify
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: no vector field: the map fails the boundary "
                       "condition lim phi(xz, yz)/z = (x, y)\n")


def test_cli_degree_cap(capsys):
    # a total degree above 2^32 - 1 does not fit a monomial key
    assert main(["parse", "u = x^4294967295; v = y"]) == 0
    assert capsys.readouterr().out.startswith("kind: flow\n")
    assert main(["parse", "u = x^4294967296; v = y"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: degree cap exceeded: total degree 4294967296 "
                       "above 4294967295\n")


@pytest.mark.parametrize("argv", [
    ["orbit", "u = x/(1-x); v = y/(1-y)", "--range", "1", "1"],
    ["orbit", "u = x/(1-x); v = y/(1-y)", "--point", "1/0", "1"],
    ["series", "u = x/(1-x); v = y/(1-y)", "--direction", "1/0", "1"],
])
def test_cli_bad_option_values_are_usage_errors(capsys, argv):
    # a zero-width range and a zero denominator end in argparse's usage
    # error, exit 2, instead of a ZeroDivisionError
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: projflow %s " % argv[0])
    assert err.splitlines()[-1].endswith(("empty range 1 1",
                                          "not a rational number: '1/0'"))


@pytest.mark.parametrize("argv", [["symmetric", "--N", "64"],
                                  ["symmetric", "--N", "-64"],
                                  ["orbit", "x", "--grid", "200"],
                                  ["orbit", "x", "--grid", "1"],
                                  ["series", "x", "--order", "2"],
                                  ["series", "x", "--order", "400"]])
def test_cli_caps_admit_their_bound(argv):
    # parsing only: a run at the cap takes seconds
    args = build_parser().parse_args(argv)
    assert getattr(args, argv[-2][2:]) == int(argv[-1])


@pytest.mark.parametrize("argv", [["symmetric", "--N", "65"],
                                  ["symmetric", "--N", "-65"],
                                  ["orbit", "u = x/(1-x); v = y/(1-y)",
                                   "--grid", "201"]])
def test_cli_caps_reject_beyond_their_bound(monkeypatch, capsys, argv):
    # |N| above 64 and a grid above 200 are usage errors, exit 2, before
    # any computation
    def forbidden(*a, **k):
        raise AssertionError("computation started")

    monkeypatch.setattr("projflow.cli._cl.symmetric_family", forbidden)
    monkeypatch.setattr("projflow.cli.parse_flow", forbidden)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: projflow %s " % argv[0])
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        "argument %s: %s: absolute value above the cap %d"
        % (argv[-2], argv[-1], 64 if argv[0] == "symmetric" else 200))


@pytest.mark.parametrize("argv, message", [
    (["orbit", "u = x/(1-x); v = y/(1-y)", "--grid", "0"],
     "0: below the least value 1"),
    (["series", "u = x/(1-x); v = y/(1-y)", "--order", "1"],
     "1: below the least value 2"),
    (["series", "u = x/(1-x); v = y/(1-y)", "--order", "401"],
     "401: absolute value above the cap 400"),
])
def test_cli_grid_and_order_bounds_are_usage_errors(monkeypatch, capsys,
                                                    argv, message):
    # a grid below 1 once sampled one point silently, an order of 1 ended
    # in an AlgebraError (exit 1) and a large order ran for minutes: all are
    # usage errors, exit 2, before any computation
    def forbidden(*a, **k):
        raise AssertionError("computation started")

    monkeypatch.setattr("projflow.cli.parse_flow", forbidden)
    monkeypatch.setattr("projflow.cli.parse_input", forbidden)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: projflow %s " % argv[0])
    assert err.splitlines()[-1].endswith(
        "argument %s: %s" % (argv[-2], message))


def test_cli_exit_parse_error():
    code, _, err = run_cli("parse", "u = 0.5*x; v = y")
    assert code == 2


def test_cli_exit_singular():
    code, _, err = run_cli("vf", "u = x; v = x")
    assert code == 3
    # phi(phi(xz, yz)(1-z)/z) has the denominator x - y at u = v
    code, _, err = run_cli("verify", "u = x/(x-y); v = x/(x-y)")
    assert code == 3 and "identically singular" in err


def test_cli_exit_needs_rational_root():
    # cubic with an irrational factorization obstruction
    code, out, err = run_cli("classify", "(x^2 - 2*y^2 + x*y, -y^2 + x^2)")
    assert code == 4
    assert err == "needs rational root: irrational root required\n"
    assert out == ""


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_cli_resource_errors_exit_1(monkeypatch, capsys, exc):
    # input too large to process ends in one line and exit 1, no traceback
    def explode(text):
        raise exc("too deep" if exc is RecursionError else "")

    monkeypatch.setattr("projflow.cli.parse_input", explode)
    assert main(["classify", "(x^2, y^2)"]) == 1
    out = capsys.readouterr()
    assert out.err == ("error: input too large to process (%s)\n"
                       % exc.__name__)
    assert out.out == ""


def test_cli_bare_field_needs_rational_root(capsys):
    # a field with a squared denominator and no rational univariate form:
    # denominator reduction (Step I) runs into an irrational root
    field = ("((x^4 + 2*x^3*y + 2*x^2*y^2)/(x^2 - 2*x*y + y^2), "
             "(x^2*y^2 + 2*x*y^3 + y^4)/(x^2 - 2*x*y + y^2))")
    assert main(["classify", field]) == 4
    out = capsys.readouterr()
    assert out.err == "needs rational root: irrational root required\n"
    assert out.out == ""


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


_FIRST_VERDICT = """\
import contextlib, io, sys
from fractions import Fraction as F
from projflow import Poly, canonical_flow, canonicalize, cli, poly_gcd
canonicalize(canonical_flow(2))
x, y = Poly.var(0, 2), Poly.var(1, 2)
z = x + y + 1
g = x ** 3 * z ** 2 + F(3, 2) * y ** 2 * z + 9 * x ** 2 * y ** 2 * z
a = 2 * x ** 3 * y ** 2 * z - F(1, 2) * x ** 2 * z ** 2 - F(5, 3) * y * z ** 2 \\
    - 4 * x * y ** 3 * z ** 3
b = -7 * x * y ** 3 + 2 * x ** 2 * y ** 3 * z ** 2 - F(3, 4) * x ** 3 * y ** 2 * z \\
    + x ** 3 * z ** 3
assert poly_gcd(a * g, b * g) == g.unit_normal()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for flow in sys.argv[1:]:
        codes += [cli.main(["classify", flow, "--json"]), cli.main(["level", flow])]
    codes.append(cli.main(["zoo"]))
print(set(codes), "sympy" in sys.modules)
"""


def test_first_verdict_and_cli_import_no_sympy():
    # a first verdict, the gcd of the hard pair in x, y of test_algebra, and
    # classify, level and zoo on the catalogue run without importing sympy.
    # This process has imported sympy already, so a fresh interpreter checks.
    flows = [print_flow(entry.flow) for entry in zoo()]
    code, out, err = _run_child("-c", _FIRST_VERDICT, *flows)
    assert code == 0, err
    assert out.split() == ["{0}", "False"]


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


@pytest.mark.parametrize("text", ["u = x/(x + y + 1); v = y/(x + y + 1)",
                                  "u = x; v = y"])
def test_cli_dual_below_level_2(capsys, text):
    # a level-0 flow and the identity have no univariate form to reflect
    assert main(["dual", text]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: dual needs level >= 2\n")


@pytest.mark.parametrize("text, err", [
    ("u = x*(y+1) + y^2; v = y/(y+1)", "the translation equation fails"),
    ("u = x^2; v = x^2",
     "the map fails the boundary condition and has no degenerate form"),
])
def test_cli_dual_rejects_non_flows(capsys, text, err):
    # dual reports a map that is not a flow as classify does
    assert main(["dual", text]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: not a flow: %s\n" % err)
