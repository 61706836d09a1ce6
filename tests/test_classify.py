import json
import os
import random
import runpy
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import assume, given, settings, strategies as st

from projflow import (
    AlgebraError,
    AlreadyQuadratic,
    Degenerate,
    Flow,
    HomBir,
    Identity,
    LevelResult,
    LinearMap2,
    NeedsRationalRoot,
    NonIntegerLevel,
    NonRational,
    NonRationalGenus1,
    PHatValue,
    Poly,
    PseudoLog,
    QuadVF,
    RatFn,
    RationalFlow,
    VectorField,
    VerificationFailed,
    canonical_flow,
    canonicalize,
    classify_degenerate,
    classify_vf,
    conjugate_flow,
    conjugate_vf,
    dual,
    kapa,
    level_of,
    lookup,
    orbit_invariant,
    pN_map,
    phat_map,
    quadratic_classify,
    reduce_denominator_step,
    step2_obstruction,
    symmetric_family,
    uniN,
    univariate_classify,
    vecc,
    vector_field,
    verify_pde,
    verify_translation,
    zoo,
)
from projflow import algebra as algebra_module
from projflow import birmap as birmap_module
from projflow import classify as classify_module
from projflow import flowcore as flowcore_module
from projflow import odesolve as odesolve_module
from projflow.algebra import divexact
from projflow.birmap import _radial_field, conjugate_vf_radial
from projflow.classify import (
    _Chain,
    _conjugates_to,
    _quad_uvw,
    _transported_invariant,
)
from projflow.cli import _coords_repr, main
from projflow.flowcore import NotDegenerate
from projflow.odesolve import (LinODE, NoRationalSolution, differ_ode,
                               homogenize_0, solve_differ)
from projflow.parser import (parse_flow, parse_vector_field, print_flow,
                             print_vector_field)

import odesolve_reference
from invariant_reference import transported_invariant_reference
from test_acceptance import _mutants, _perturbed
from test_odesolve import _homogenize_by_terms

SCHEMA = json.load(open(
    os.path.join(os.path.dirname(__file__), "..", "docs",
                 "report-schema.json")))

X = Poly.var(0, 2)
Y = Poly.var(1, 2)


def _rf(n, d=None):
    return RatFn(n) if d is None else RatFn(n, d)


# -- canonicalize ----------------------------------------------------------

def test_canonicalize_identity():
    f = Flow(RatFn.var(0, 2), RatFn.var(1, 2))
    assert isinstance(canonicalize(f), Identity)


def test_canonicalize_zoo_levels_and_orbits():
    for entry in zoo():
        res = canonicalize(entry.flow)
        assert isinstance(res, RationalFlow), entry.name
        assert res.level == entry.level, entry.name
        assert res.orbit_W == entry.orbit_W, entry.name


def test_canonicalize_certificate():
    for name in ("phi_pr", "phi_tor_1", "phi2_1", "Phi_2"):
        entry = lookup(name)
        res = canonicalize(entry.flow)
        assert conjugate_flow(entry.flow, res.ell) == canonical_flow(res.level)


def _seeded_hombir(rng, deg):
    """A map (P, Q; L) of degree deg with coefficients in {-1, 0, 1}."""
    while True:
        P, Q = (sum((rng.randint(-1, 1) * X ** i * Y ** (deg - i)
                     for i in range(deg + 1)), Poly.zero(2))
                for _ in range(2))
        a, b, c, d = (rng.randint(-1, 1) for _ in range(4))
        if P.is_zero() or Q.is_zero() or a * d == b * c:
            continue
        h = HomBir(P, Q, LinearMap2(a, b, c, d))
        if h.degree() == deg:
            return h


def _seeded_conjugates(rng):
    """(N, h, h^-1 o phi_N o h) for N in {1, -1, 2} and two maps (P, Q; L)
    of degree 1 and two of degree 2, with coefficients in {-1, 0, 1}: the
    draw of test_flowcore.test_vector_field_routes_agree."""
    out = []
    for deg in (1, 1, 2, 2):
        h = _seeded_hombir(rng, deg)
        N = rng.choice((1, -1, 2))
        out.append((N, h, conjugate_flow(canonical_flow(N), h)))
    return out


def test_conjugation_certificate_check():
    # (f, ell, N) with ell^-1 o f o ell == phi_N
    cases = [(e.flow, canonicalize(e.flow).ell, e.level) for e in zoo()]
    cases += [(f, h.inverse(), N) for seed in (2, 7)
              for N, h, f in _seeded_conjugates(random.Random(seed))]
    assert {N for _, _, N in cases} >= {0, 1, -1, 2, 3}
    # the shear commutes with phi_N only at level 0
    shear = HomBir.linear(LinearMap2(1, 1, 0, 1))
    for f, ell, N in cases:
        assert _conjugates_to(f, ell, N), (f, N)
        sheared = ell.compose(shear)
        assert _conjugates_to(f, sheared, N) == (N == 0), (f, N)


def _bump(p):
    """p with 1 added to its leading coefficient."""
    e, c = p.leading_term()
    return p + Poly(2, {e: Fraction(1)})


def test_conjugates_to_rejects_one_coefficient_perturbations(monkeypatch):
    # the certificate, f == ell o phi_N o ell^-1 built from ell's own terms,
    # accepts seeded conjugates, among them one by a degree-3 map with a
    # non-identity linear part, and rejects a one-coefficient change of the
    # numerator or the denominator of u and, separately, of v; a coordinate
    # stored unreduced, with a planted common factor, is accepted through
    # the cross-multiplication fallback
    divisions = []

    def spy(p, d):
        try:
            q = divexact(p, d)
        except AlgebraError:
            divisions.append("inexact")
            raise
        divisions.append("exact")
        return q

    monkeypatch.setattr(classify_module, "divexact", spy)
    ell3 = HomBir(X ** 3 - 2 * X * Y ** 2 + Y ** 3,
                  X ** 3 + X ** 2 * Y - 3 * Y ** 3, LinearMap2(1, 2, -1, 1))
    assert ell3.degree() == 3 and not ell3.L.is_identity()
    cases = [(f, h.inverse(), N)
             for N, h, f in _seeded_conjugates(random.Random(13))]
    cases.append((conjugate_flow(canonical_flow(2), ell3.inverse()), ell3, 2))
    g = X + 3 * Y + 5
    outcomes = []
    for f, ell, N in cases:
        outcomes.append(_conjugates_to(f, ell, N))
        assert outcomes[-1], (f, N)
        u, v = f.u, f.v
        planted = (Flow(RatFn(g * u.num, g * u.den, reduce=False), v),
                   Flow(u, RatFn(g * v.num, g * v.den, reduce=False)))
        for h in planted:
            assert _conjugates_to(h, ell, N), (h, N)
        bumped = (RatFn(_bump(u.num), u.den), RatFn(u.num, _bump(u.den)),
                  RatFn(_bump(v.num), v.den), RatFn(v.num, _bump(v.den)))
        for i, c in enumerate(bumped):
            h = Flow(c, v) if i < 2 else Flow(u, c)
            outcomes.append(_conjugates_to(h, ell, N))
            assert not outcomes[-1], (h, N)
    assert set(outcomes) == {True, False}
    assert set(divisions) == {"exact", "inexact"}


@st.composite
def _conjugated_levels(draw):
    """(N, h) for N in {0, +-1, 2} and a map h = (P, Q; L) of degree at
    most 2 with coefficients in [-2, 2] and L invertible."""
    deg = draw(st.integers(0, 2))
    coeff = st.integers(-2, 2)
    P, Q = (sum((draw(coeff) * X ** i * Y ** (deg - i)
                 for i in range(deg + 1)), Poly.zero(2)) for _ in range(2))
    assume(not P.is_zero() and not Q.is_zero())
    a, b, c, d = (draw(coeff) for _ in range(4))
    assume(a * d != b * c)
    N = draw(st.sampled_from((0, 1, -1, 2)))
    return N, HomBir(P, Q, LinearMap2(a, b, c, d))


@given(_conjugated_levels())
@settings(max_examples=40, deadline=5000)
def test_random_conjugates_canonicalize_to_their_level(case):
    # h^-1 o phi_N o h classifies at level |N| with a passing certificate
    N, h = case
    f = conjugate_flow(canonical_flow(N), h)
    res = canonicalize(f)
    assert isinstance(res, RationalFlow) and res.level == abs(N), (N, h)
    assert _conjugates_to(f, res.ell, res.level), (N, h)


def test_flow_and_field_reports_agree(capsys):
    # classify on a flow and on its vector field: the same report apart from
    # the flow's zeros_poles, and the zoo's level, invariant and coordinates
    def report(text):
        assert main(["classify", text, "--json"]) == 0, text
        out = json.loads(capsys.readouterr().out)
        jsonschema.validate(out, SCHEMA)
        return out

    cases = [(e.flow, e.level, e) for e in zoo()]
    cases += [(f, abs(N), None) for seed in (2, 7)
              for N, _h, f in _seeded_conjugates(random.Random(seed))]
    # the flows of (y^2, 0) and (x^2, 0)
    cases += [(parse_flow("u = x + y^2; v = y"), 1, None),
              (parse_flow("u = x/(1 - x); v = y"), 1, None)]
    for f, level, entry in cases:
        flow = report(print_flow(f))
        field = report(print_vector_field(vector_field(f)))
        assert flow.pop("zeros_poles") is not None, f
        assert field == flow, f
        assert (flow["verdict"], flow["level"]) == ("RationalFlow", level), f
        if entry is not None:
            assert flow["orbit_W"] == entry.orbit_W.to_string(), entry.name
            assert flow["coords"] == _coords_repr(entry.coords), entry.name


def test_chain_moves_match_conjugate_vf():
    # each move's formula on (U, V, W) against conjugating the field
    rng = random.Random(11)

    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for _ in range(100):
        q = QuadVF(frac(), frac(), frac())
        for move, args in (("shear", (frac(),)), ("involution", ()),
                           ("x_scale", (frac() or Fraction(1),))):
            ch = _Chain(q)
            getattr(ch, move)(*args)
            v = conjugate_vf(q.vector_field(), ch.ell)
            want = _quad_uvw(v.P, v.Q, v.D)
            assert want == ch.q, (q, move, args)


def test_canonicalize_degree2_conjugate_of_phi3():
    # its conjugate_flow once ran for minutes in the gcd of RatFn.subs
    h = HomBir(X * X + 2 * X * Y - 2 * Y * Y, 2 * X * X - 2 * X * Y + 2 * Y * Y,
               LinearMap2(1, -2, 2, -2))
    f = conjugate_flow(canonical_flow(3), h)
    res = canonicalize(f)
    assert isinstance(res, RationalFlow)
    assert abs(res.level) == 3
    assert _conjugates_to(f, res.ell, res.level)


def test_canonicalize_coordinates():
    for entry in zoo():
        res = canonicalize(entry.flow)
        if entry.level == 1:
            assert isinstance(res.coords, PHatValue)
            assert res.coords == entry.coords, entry.name
        elif entry.level >= 2:
            assert res.coords == entry.coords, entry.name


def test_canonicalize_degenerate_flows():
    f = Flow(RatFn.const(Fraction(0), 2), _rf(Y, Y + 1))
    res = canonicalize(f)
    assert isinstance(res, Degenerate)
    assert (res.R, res.c, res.A, res.B) == (_rf(Y), 1, 0, 1)
    g = Flow(RatFn.const(Fraction(0), 2), _rf(Y))
    res = canonicalize(g)
    assert isinstance(res, Degenerate)
    assert (res.R, res.c, res.A, res.B) == (_rf(Y), 0, 0, 1)


def test_classify_degenerate_zero_flow():
    zero = RatFn.const(Fraction(0), 2)
    res = classify_degenerate(Flow(zero, zero))
    assert isinstance(res, Degenerate)
    assert (res.c, res.A, res.B) == (0, 0, 0)


def test_canonicalize_rejects_a_non_flow_without_degenerate_form():
    # 2 x fails the boundary condition, and the map has no degenerate form
    f = Flow(RatFn(2 * X), RatFn(2 * Y))
    with pytest.raises(AlgebraError, match="^not a flow: the map fails the "
                       "boundary condition and has no degenerate form$") as e:
        canonicalize(f)
    assert isinstance(e.value.__cause__, NotDegenerate)
    assert not verify_translation(f)


class _StepsReached(Exception):
    pass


def test_canonicalize_never_runs_steps_one_to_three(monkeypatch):
    # a flow that is neither the identity nor degenerate is conjugate to
    # some phi_N, so canonicalize names no obstruction: with Steps I-III
    # made to raise, the zoo, the catalogue's flow texts and seeded
    # conjugates keep their verdicts and non-flows are still rejected; only
    # classify_vf reaches them, on a field with no univariate form
    flows = [e.flow for e in zoo()]
    flows += [parse_flow(row[1]) for row in _catalogue_rows()]
    flows += [f for seed in (1, 2, 3, 7)
              for _, _, f in _seeded_conjugates(random.Random(seed))]
    want = [repr(canonicalize(f)) for f in flows]
    rng = random.Random(5)
    non_flows = _mutants() + [g for e in zoo() for g in
                              (_perturbed(e.flow, rng) for _ in range(3))
                              if not verify_pde(g)]
    # some of them have a field with no univariate form, which used to go
    # on to Steps I-III once the translation equation had failed
    assert any(_formless(g) for g in non_flows)
    reached = []
    name_obstruction = classify_module._name_obstruction

    def counted(vf):
        reached.append("_name_obstruction")
        return name_obstruction(vf)

    def step(vf):
        reached.append("reduce_denominator_step")
        raise _StepsReached

    monkeypatch.setattr(classify_module, "_name_obstruction", counted)
    monkeypatch.setattr(classify_module, "reduce_denominator_step", step)
    assert [repr(canonicalize(f)) for f in flows] == want
    for g in non_flows:
        with pytest.raises(AlgebraError, match="^not a flow: "):
            canonicalize(g)
    assert reached == []
    # (x y, x y) has a constant denominator and is named by Step II
    res = classify_vf(VectorField(X * Y, X * Y))
    assert isinstance(res, NonRational) and res.tag == "phi_e_prime"
    assert reached == ["_name_obstruction"]
    # x^2 + y^2 times the radial field, conjugated by y/(x + y), has a
    # denominator that Step I must clear
    with pytest.raises(_StepsReached):
        classify_vf(conjugate_vf(VectorField(X * X + Y * Y, Poly.zero(2)),
                                 HomBir.from_A(_rf(Y, X + Y))))
    assert reached[1:] == ["_name_obstruction", "reduce_denominator_step"]


def _formless(f):
    """Whether f has a jet field that has no rational univariate form."""
    field = flowcore_module._jet_field(f)
    try:
        return (field is not None and classify_module._classify_by_form(
            VectorField.of(*field)) is None)
    except AlgebraError:
        return False


def test_canonicalize_raises_on_a_flow_without_univariate_form(monkeypatch):
    # a flow passes the translation equation, so a field verdict other than
    # RationalFlow is a fault of the classifier, not an obstruction to name
    f = lookup("phi2_1").flow
    for verdict in (None, NonIntegerLevel(Fraction(9, 4))):
        monkeypatch.setattr(classify_module, "_classify_by_form",
                            lambda vf: verdict)
        with pytest.raises(VerificationFailed, match="not a rational flow"):
            canonicalize(f)


def test_canonicalize_pseudolog(capsys):
    res = classify_vf(VectorField(-X * X - X * Y, -Y * Y))
    assert isinstance(res, PseudoLog)
    assert res.ell_to_normal_form == HomBir.identity()
    assert isinstance(univariate_classify(QuadVF(-1, -1, 0)), PseudoLog)
    assert main(["classify", "(-x^2 - x*y, -y^2)", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "PseudoLog"


def test_canonicalize_non_integer_level():
    res = univariate_classify(QuadVF(1, 0, -1))
    assert isinstance(res, NonIntegerLevel)


# -- univariate layer ------------------------------------------------------

def test_univariate_classify_canonical():
    for N in (1, 2, 3, 5):
        res = univariate_classify(QuadVF(0, N - 1, 0))
        assert res["kind"] == "level" and res["N"] == N


def test_univariate_families_translation():
    import random
    rng = random.Random(17)
    for N in (1, 2, 3, 5):
        for _ in range(3):
            sigma = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            tau = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            kappa = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert verify_translation(uniN(N, sigma, tau))
            assert verify_translation(kapa(N, kappa))


def test_vecc_matches_families():
    for N in (1, 2, 3):
        sigma, tau = Fraction(2), Fraction(-1, 2)
        assert vector_field(uniN(N, sigma, tau)) == vecc(N, sigma, tau)


# -- quadratic classification (Step III) -----------------------------------

def test_quadratic_genus1_pairs():
    cases = [
        ((X * X - 2 * X * Y, -2 * X * Y + Y * Y), (-2, -2),
         _rf(X * Y * (X - Y))),
        ((X * X - 3 * X * Y, -3 * X * Y + Y * Y), (-3, -3),
         _rf(X * Y * (X - Y) ** 2)),
        ((X * X - X * Y, -2 * X * Y + Y * Y), (-1, -2),
         _rf(X ** 4 * Y * Y - Fraction(2, 3) * X ** 3 * Y ** 3)),
    ]
    for (w, r), pair, _W in cases:
        res = quadratic_classify(w, r)
        assert isinstance(res, NonRationalGenus1)
        assert tuple(sorted(res.pair)) == tuple(sorted(pair))


def test_quadratic_genus1_orbit_polys():
    res = quadratic_classify(X * X - 2 * X * Y, -2 * X * Y + Y * Y)
    assert res.orbit_W == _rf(X * Y * (X - Y))
    res = quadratic_classify(X * X - 3 * X * Y, -3 * X * Y + Y * Y)
    assert res.orbit_W == _rf(X * Y * (X - Y) ** 2)
    res = quadratic_classify(X * X - X * Y, -2 * X * Y + Y * Y)
    # (3x - 2y) x^3 y^2 up to monic normalization
    expect = (_rf((3 * X - 2 * Y) * X ** 3 * Y * Y)
              * Fraction(1, 3)).scale_num_monic()
    assert res.orbit_W == expect


def test_quadratic_rational_terminal():
    res = quadratic_classify(X * Y, -(Y * Y))
    assert isinstance(res, dict) and res["kind"] == "univariate"
    sub = res["classification"]
    assert sub["kind"] == "level" and sub["N"] == 2


def test_quadratic_log_obstruction():
    res = quadratic_classify(X * Y, X * Y + Y * Y)
    assert isinstance(res, NonRational) and res.tag == "log_type"
    res = quadratic_classify(X * X + 2 * X * Y, -3 * X * Y + Y * Y)
    assert isinstance(res, NonRational)
    assert res.tag == "non_integer_exponent"


def test_quadratic_cube_case():
    # y w - x r = x^3: b = 1 gives the lambda-obstruction, b = 0 a pseudo-log;
    # linear conjugates move the triple root away from (0 : 1)
    for (w, r), kind in (((X * X + X * Y, X * Y + Y * Y - X * X), NonRational),
                         ((X * X, X * Y - X * X), PseudoLog)):
        for L in (LinearMap2(1, 0, 0, 1), LinearMap2(1, 1, 0, 1),
                  LinearMap2(2, 1, 1, 1), LinearMap2(0, 1, 1, 3)):
            vf = conjugate_vf(VectorField(w, r), HomBir.linear(L))
            res = quadratic_classify(vf.w, vf.r)
            assert isinstance(res, kind), (w, r, L)
            if kind is NonRational:
                assert res.tag == "log_cube"


def test_quadratic_classify_input_checks():
    with pytest.raises(AlgebraError, match="expected a quadratic form"):
        quadratic_classify(X ** 3, Y ** 3)
    with pytest.raises(NeedsRationalRoot) as exc:
        quadratic_classify(X * Y, 3 * Y * Y - X * X)
    assert exc.value.blocking_poly == X ** 3 - 2 * X * Y * Y
    assert str(exc.value) == "irrational root required"


def test_quadratic_classify_level0():
    # w = x J, r = y J for J = x + y: y w - x r = 0, the radial field of a
    # level-0 flow, which level_of reads as level 0 too
    w, r = X * X + X * Y, X * Y + Y * Y
    assert quadratic_classify(w, r) == {"kind": "level0"}
    assert level_of(VectorField(w, r)) == LevelResult.level(0)


# The shapes below are proportional fields (w, r), which quadratic_classify
# sends to Step II before it looks for roots, and a linear change keeps a
# field proportional: so only a direct call reaches these step2 branches.

def test_cube_case_without_x_terms_is_step2():
    # (0, x^2): y w - x r = -x^3, whose triple root x = 0 is at (0 : 1), so
    # no change is made; w = a x^2 + b x y has a = b = 0, and the swapped
    # field (y^2, 0) is Step II's w = z y^2, r = 0
    assert classify_module._cube_case(Poly.zero(2), X * X, (0, 1)) == {
        "kind": "step2"}


@pytest.mark.parametrize("w, r", [
    (X * X + X * Y, Poly.zero(2)),      # c = d = 0: r = 0, Step II's shape
    (Poly.zero(2), X * Y + Y * Y),      # a = b = 0: w = 0, the swap of it
])
def test_triangular_case_proportional_is_step2(w, r):
    res = classify_module._triangular_case(VectorField(w, r), None)
    assert res == {"kind": "step2"}


def test_triangular_case_swaps_when_b_is_zero():
    # (a x^2, c x y + d y^2) with a != 0: the linear map (x, y) -> (-y/a, x)
    # swaps the coordinates and rescales, giving (d x^2 - (c/a) x y, -y^2),
    # so delta^2 = (1 - c/a)^2 with W = 0, which level_of reads off the
    # field itself: 4, level 2, for c = -a; 25/4 for a = 2, c = -3
    for a, c, d, level in ((1, -1, 1, LevelResult.level(2)),
                           (2, -3, 5, LevelResult.non_integer_square(
                               Fraction(25, 4)))):
        vf1 = VectorField(a * X * X, c * X * Y + d * Y * Y)
        uvw = QuadVF(d, Fraction(-c, a), 0)
        res = classify_module._triangular_case(vf1, None)
        assert res == {"kind": "univariate", "uvw": uvw}, (a, c, d)
        swap = HomBir.linear(LinearMap2(0, Fraction(-1, a), 1, 0))
        assert conjugate_vf(vf1, swap) == uvw.vector_field(), (a, c, d)
        assert uvw.delta_squared() == (1 - Fraction(c, a)) ** 2
        assert level_of(vf1) == level, (a, c, d)


def test_bc_iteration_outcomes():
    # (x^2 + B x y, C x y + y^2), that is a = d = 1 in _triangular_case
    def field(B, C):
        return VectorField(X * X + B * X * Y, C * X * Y + Y * Y)

    # B = C = 1: w = x (x + y), r = y (x + y), the radial level-0 field
    assert classify_module._bc_iteration(1, 1, None) == {"kind": "level0"}
    assert level_of(field(1, 1)) == LevelResult.level(0)
    # B + C = 2: the radial map A = -y/(x+y) gives ((C - 2) x y, -y^2),
    # so delta^2 = (C - 1)^2 and the level is |C - 1|
    for B, C in ((3, -1), (-1, 3), (5, -3)):
        res = classify_module._bc_iteration(B, C, None)
        assert res == {"kind": "univariate", "uvw": QuadVF(0, C - 2, 0),
                       "via": "A=-y/(x+y)"}, (B, C)
        radial = HomBir.from_A(_rf(-Y, X + Y))
        assert conjugate_vf(field(B, C), radial) == \
            QuadVF(0, C - 2, 0).vector_field(), (B, C)
        assert level_of(field(B, C)) == LevelResult.level(abs(C - 1))
    # exactly one of B, C is 1, or one is 2 and the other nonzero: a
    # logarithmic obstruction
    for B, C in ((1, 3), (4, 1), (2, 3), (-3, 2)):
        res = classify_module._bc_iteration(B, C, None)
        assert isinstance(res, NonRational), (B, C)
        assert (res.tag, res.detail) == ("log_type", (B, C))
    # otherwise B' = (B + C - 2)/(B C - 1) must be an integer: for (3, 3)
    # it is 4/8, the arithmetic obstruction
    res = classify_module._bc_iteration(3, 3, None)
    assert isinstance(res, NonRational)
    assert (res.tag, res.detail) == ("arithmetic_obstruction", (3, 3))
    # B = 0 steps to B' = 2 - C, and then B' + C = 2; C = 0 steps from B to
    # 2 - B and back, which the iteration reports as a cycle
    assert classify_module._bc_iteration(0, 5, None) == {
        "kind": "univariate", "uvw": QuadVF(0, 3, 0), "via": "A=-y/(x+y)"}
    with pytest.raises(VerificationFailed, match="cycled"):
        classify_module._bc_iteration(5, 0, None)


# -- Step II and denominator reduction -------------------------------------

def test_step2_rational_branches():
    res = step2_obstruction(VectorField(Y * Y, Poly.zero(2)))
    assert res["kind"] == "rational"
    assert res["flow"] == Flow(_rf(X + Y * Y), _rf(Y))
    assert verify_translation(res["flow"])
    res = step2_obstruction(VectorField(-(X * X), Poly.zero(2)))
    assert res["kind"] == "rational"
    assert verify_translation(res["flow"])


def test_step2_non_rational_branches():
    res = step2_obstruction(VectorField(X * Y, Poly.zero(2)))
    assert isinstance(res, NonRational) and res.tag == "phi_e"
    res = step2_obstruction(VectorField(X * X + Y * Y, Poly.zero(2)))
    assert isinstance(res, NonRational) and res.tag == "phi_t"
    res = step2_obstruction(VectorField(X * X - Y * Y, Poly.zero(2)))
    assert isinstance(res, NonRational) and res.tag == "phi_e_prime"
    # w and r proportional: a linear change first takes r to 0
    res = step2_obstruction(VectorField(X * Y, X * Y))
    assert isinstance(res, NonRational) and res.tag == "phi_e_prime"
    res = step2_obstruction(VectorField(Poly.zero(2), X * Y))
    assert isinstance(res, NonRational) and res.tag == "phi_e"


def test_step2_zero_field_and_perfect_square():
    # the zero field is the identity flow's
    assert isinstance(step2_obstruction(VectorField(Poly.zero(2),
                                                    Poly.zero(2))), Identity)
    # w = z l^2 for a linear form l, here (x + y)^2 and 3 (x - 2 y)^2, has
    # discriminant 0 and is linearly conjugate to z x^2, whose flow is
    # x/(1 - z x); r proportional to w is first taken to 0
    for w, r in (((X + Y) ** 2, Poly.zero(2)),
                 (3 * (X - 2 * Y) ** 2, 6 * (X - 2 * Y) ** 2)):
        res = step2_obstruction(VectorField(w, r))
        assert res == {"kind": "rational", "normal": "x/(1-zx)",
                       "flow": None}, (w, r)


def test_reduce_denominator_zoo_fields():
    for name, expect in (
        ("phi2_1", (X * Y, -(Y * Y))),
        ("phi1_1", (Y * Y, -(Y * Y))),
        ("phi0_2", (-(X * X), -X * Y)),
        ("phi2_3", (-2 * X * X + X * Y, -(Y * Y))),
    ):
        vf = lookup(name).vf
        res = reduce_denominator_step(vf)
        assert not isinstance(res, (AlreadyQuadratic,)), name
        got = res["vf"]
        assert (got.w, got.r) == (_rf(expect[0]), _rf(expect[1])), name


def test_classify_vf_names_obstruction_after_one_reduction(monkeypatch):
    # x^2 + y^2 times the radial field, conjugated by the radial map
    # y/(x + y), has denominator (x + y)^2 and no rational univariate form;
    # Step I clears it in one reduction and the quadratic form is tangent
    vf = conjugate_vf(VectorField(X * X + Y * Y, Poly.zero(2)),
                      HomBir.from_A(_rf(Y, X + Y)))
    assert not vf.D.is_constant()
    steps = []
    step = classify_module.reduce_denominator_step

    def counted(field):
        steps.append(step(field))
        return steps[-1]

    monkeypatch.setattr(classify_module, "reduce_denominator_step", counted)
    res = classify_vf(vf)
    assert isinstance(res, NonRational) and res.tag == "phi_t"
    assert len(steps) == 1 and steps[0]["vf"].D.is_constant()


def test_reduce_denominator_already_quadratic():
    res = reduce_denominator_step(VectorField(X * Y, -(Y * Y)))
    assert isinstance(res, AlreadyQuadratic)


# -- coordinates, orbit invariants, duality --------------------------------

def test_orbit_invariant_zoo():
    for entry in zoo():
        assert orbit_invariant(entry.vf, entry.level) == entry.orbit_W, \
            entry.name


# h^-1 o phi_N o h for levels past the seeded draws, by maps of degree 1
# and 2 with small coefficients
_HIGH_LEVEL_MAPS = (
    HomBir(X + Y, X - 2 * Y, LinearMap2(1, 1, 0, 1)),
    HomBir(X * X + X * Y - Y * Y, X * X + 2 * Y * Y, LinearMap2(0, 1, 1, -1)),
)


@pytest.fixture(scope="module")
def transport_cases():
    """(vf, RationalFlow verdict) from the pipeline on the fields of the
    seed-2 and seed-7 ``_seeded_conjugates`` and of conjugates of phi_N for
    N in {3, -3, 4, 5}."""
    flows = [f for seed in (2, 7)
             for _N, _h, f in _seeded_conjugates(random.Random(seed))]
    flows += [conjugate_flow(canonical_flow(N), h)
              for N in (3, -3, 4, 5) for h in _HIGH_LEVEL_MAPS]
    out = []
    for f in flows:
        vf = vector_field(f)
        res = classify_vf(vf)
        assert isinstance(res, RationalFlow), f
        out.append((vf, res))
    assert {res.level for _, res in out} >= {1, 2, 3, 4, 5}
    return out


def test_transported_invariant_matches_orbit_equation(transport_cases):
    # phi_N's invariant carried by ell^-1 is the invariant the orbit
    # equation gives, normalization included
    for vf, res in transport_cases:
        assert res.orbit_W == orbit_invariant(vf, res.level), vf


def test_transported_invariant_rejects_wrong_conjugator(transport_cases,
                                                       monkeypatch):
    # a shear does not commute with phi_N for N >= 1, so x y^(N-1) carried
    # by (ell o shear)^-1 is no invariant of the field
    shear = HomBir.linear(LinearMap2(1, 1, 0, 1))
    for vf, res in transport_cases:
        with pytest.raises(VerificationFailed):
            _transported_invariant(vf, res.level, res.ell.compose(shear))
    # and the pipeline runs the check on the conjugator it builds
    chain = classify_module._chain_to_canonical
    monkeypatch.setattr(classify_module, "_chain_to_canonical",
                        lambda q, N, ell: chain(q, N, ell).compose(shear))
    with pytest.raises(VerificationFailed):
        classify_vf(transport_cases[0][0])


def _reduced_uvw(vf):
    """(U, V, W) read off a reduced field in univariate form, or None."""
    if not vf.D.is_constant() or vf.Q != -Y * Y:
        return None
    return QuadVF(*(vf.P.terms.get(e, 0) for e in ((2, 0), (1, 1), (0, 2))))


def test_radial_read_matches_reduced_field(transport_cases):
    # (U, V, W) from the unreduced numerators of the radial conjugate, as
    # from the reduced field; a perturbed A misses the univariate form
    fields = [vf for vf, _ in transport_cases]
    fields += [vector_field(e.flow) for e in zoo() if e.level != 0]
    reads = []
    for vf in fields:
        try:
            A = homogenize_0(solve_differ(vf)["particular"])
        except NoRationalSolution:
            continue
        for B in (A, A * RatFn(X + 2 * Y, X - Y), A + 1):
            got = _quad_uvw(*_radial_field(vf, B))
            assert got == _reduced_uvw(conjugate_vf_radial(vf, B)), (vf, B)
            reads.append(got is None)
    assert reads.count(False) >= len(transport_cases) and True in reads


def test_radial_read_failure_shapes(transport_cases, monkeypatch):
    # r != -y^2, or a denominator that does not divide w's numerator:
    # either one is no univariate form, and the pipeline says so
    vf = transport_cases[0][0]
    P, Q, D = _radial_field(vf, homogenize_0(solve_differ(vf)["particular"]))
    lin = X + 7 * Y
    divexact(P, D)
    with pytest.raises(AlgebraError):
        divexact(P, D * lin)
    for shape in ((P, 2 * Q, D), (P, Q * lin, D * lin)):
        monkeypatch.setattr(classify_module, "_radial_field",
                            lambda vf, A, shape=shape: shape)
        with pytest.raises(VerificationFailed):
            classify_module._classify_by_form(vf)


def test_radial_read_and_transported_invariant_take_no_gcd(monkeypatch):
    # the radial read divides once by the known denominator, and the
    # transported invariant divides out l_x and l_y; neither takes a gcd
    # of two nonconstant polynomials
    scope, seen, ran = [], [], set()

    def watch(owner):
        gcd = owner.poly_gcd

        def spy(p, q):
            if scope and not (p.is_constant() or q.is_constant()):
                seen.append(scope[-1])
            return gcd(p, q)
        monkeypatch.setattr(owner, "poly_gcd", spy)

    def enter(name):
        fn = getattr(classify_module, name)

        def run(*args):
            ran.add(name)
            scope.append(name)
            try:
                return fn(*args)
            finally:
                scope.pop()
        monkeypatch.setattr(classify_module, name, run)

    for owner in (algebra_module, flowcore_module, birmap_module):
        watch(owner)
    for name in ("_radial_field", "_quad_uvw", "_transported_invariant"):
        enter(name)
    flows = [e.flow for e in zoo()]
    flows += [f for seed in (2, 7)
              for _, _, f in _seeded_conjugates(random.Random(seed))]
    for f in flows:
        canonicalize(f)
    assert ran == {"_radial_field", "_quad_uvw", "_transported_invariant"}
    assert seen == []


def test_canonicalize_solves_one_ode(monkeypatch):
    # the univariate form is the only ODE a rational flow of level >= 1
    # solves: one call of the list solver, which rational_solutions and
    # orbit_invariant call too; its invariant comes from the conjugator
    calls = []
    solve = odesolve_module._solutions

    def counted(P, Q, R):
        calls.append((P, Q, R))
        return solve(P, Q, R)

    monkeypatch.setattr(odesolve_module, "_solutions", counted)
    monkeypatch.setattr(classify_module, "_solutions", counted)
    for N, h in ((1, _HIGH_LEVEL_MAPS[0]), (3, _HIGH_LEVEL_MAPS[1])):
        calls.clear()
        res = canonicalize(conjugate_flow(canonical_flow(N), h))
        assert isinstance(res, RationalFlow) and res.level == N
        assert len(calls) == 1, (N, calls)


def _differ_reference(vf):
    """The univariate-form equation (x Q - P) f' + Q f = -D at y = 1, on
    the field's Polys."""
    P, Q, D = (Poly(1, {(a,): c for (a, _), c in g.terms.items()})
               for g in (vf.P, vf.Q, vf.D))
    return LinODE(Poly.var(0, 1) * Q - P, Q, -D)


def _catalogue_rows():
    """The rows of the catalogue: name, flow text, field text, ..."""
    return runpy.run_path(os.path.join(os.path.dirname(__file__), "..",
                                       "bench", "catalogue.py"))["CATALOGUE"]


def _catalogue_fields():
    """The vector fields of the catalogue's field texts."""
    return [parse_vector_field(row[2]) for row in _catalogue_rows()]


def test_push_forward_phi_leaves_no_common_factor():
    # the certificate's triple (N1, N2, D) at the verdict's level, with the
    # known factors of ell cancelled as exponents, has a constant gcd on the
    # zoo, the catalogue's flows and the seeded conjugates
    flows = [e.flow for e in zoo()]
    flows += [parse_flow(row[1]) for row in _catalogue_rows()]
    flows += [f for seed in (2, 7)
              for _, _, f in _seeded_conjugates(random.Random(seed))]
    for f in flows:
        res = canonicalize(f)
        N1, N2, D = res.ell.push_forward_phi(res.level)
        gcd = algebra_module.poly_gcd
        assert gcd(gcd(N1, N2), D).is_constant(), f


def test_orbit_invariant_matches_multiplied_out_reference():
    # orbit_W of every RationalFlow of level >= 1 on the zoo, the
    # catalogue's flow texts and the seeded conjugates, against
    # tests/invariant_reference (l_x l_y^(N-1) Q^N and P^N multiplied out,
    # l_x and l_y divided back out), term for term
    flows = [e.flow for e in zoo()]
    flows += [parse_flow(row[1]) for row in _catalogue_rows()]
    flows += [f for seed in (1, 2, 3, 7)
              for _, _, f in _seeded_conjugates(random.Random(seed))]
    levels = []
    for f in flows:
        res = canonicalize(f)
        if res.level >= 1:
            want = transported_invariant_reference(res.ell, res.level)
            assert (res.orbit_W.num, res.orbit_W.den) == (want.num,
                                                          want.den), f
            levels.append(res.level)
    assert set(levels) == {1, 2, 3}


def test_conjugates_to_divides_once_per_denominator(monkeypatch):
    # h = D/d depends on d alone: a flow whose coordinates share their
    # denominator takes one exact division, any other flow two
    divisions = []
    monkeypatch.setattr(classify_module, "divexact",
                        lambda p, d: divisions.append(d) or divexact(p, d))
    shared = 0
    for e in zoo():
        res = canonicalize(e.flow)
        divisions.clear()
        assert _conjugates_to(e.flow, res.ell, res.level), e.name
        same = e.flow.u.den == e.flow.v.den
        assert len(divisions) == 2 - same, e.name
        shared += same
    assert 0 < shared < len(zoo())


def test_univariate_form_matches_fraction_reference(monkeypatch):
    # the particular solution and homogeneous basis of solve_differ, and
    # the A that _classify_by_form conjugates by, against the Fraction
    # solver of odesolve_reference on the Poly equation; a field with a
    # homogeneous solution pins the particular's pivot choice
    sphere = VectorField((X - Y) * (X - Y), (X - Y) * (X - Y))
    genus1 = VectorField(X * X - 2 * X * Y, -2 * X * Y + Y * Y)
    fields = [e.vf for e in zoo()] + _catalogue_fields()
    fields += [vector_field(f) for seed in (2, 7)
               for _, _, f in _seeded_conjugates(random.Random(seed))]
    fields += [vector_field(conjugate_flow(canonical_flow(N), h))
               for N in (3, 5) for h in _HIGH_LEVEL_MAPS]
    fields += [sphere, genus1]
    taken = []
    radial = classify_module._radial_field
    monkeypatch.setattr(classify_module, "_radial_field",
                        lambda vf, A: taken.append(A) or radial(vf, A))
    seen = set()
    for vf in fields:
        try:
            ode = _differ_reference(vf)
        except AlgebraError:  # level 0: T = 0, so x Q - P = 0 at y = 1
            with pytest.raises(AlgebraError):
                solve_differ(vf)
            seen.add("level 0")
            continue
        assert (differ_ode(vf).p, differ_ode(vf).q, differ_ode(vf).r) == \
            (ode.p, ode.q, ode.r)
        want = odesolve_reference.rational_solutions(ode)
        if want["particular"] is None:
            with pytest.raises(NoRationalSolution):
                solve_differ(vf)
            assert classify_module._classify_by_form(vf) is None
            seen.add("none")
            continue
        assert solve_differ(vf) == want, vf
        seen.add("homogeneous" if want["homogeneous_basis"] else "unique")
        taken.clear()
        classify_module._classify_by_form(vf)
        assert taken == [_homogenize_by_terms(want["particular"])], vf
    assert seen == {"level 0", "none", "homogeneous", "unique"}
    assert solve_differ(sphere)["homogeneous_basis"] is not None


def test_classify_by_form_reads_lists(monkeypatch):
    # level_of, the univariate-form step (_univariate_form, _homogenize)
    # and the orbit check (_transported_invariant) run on integer lists:
    # _classify_by_form builds no LinODE, and these steps take no poly_gcd
    scope, seen, ran = [], [], set()

    def watch(owner):
        gcd = owner.poly_gcd

        def spy(p, q):
            if scope:
                seen.append(scope[-1])
            return gcd(p, q)
        monkeypatch.setattr(owner, "poly_gcd", spy)

    def enter(name):
        fn = getattr(classify_module, name)

        def run(*args):
            ran.add(name)
            scope.append(name)
            try:
                return fn(*args)
            finally:
                scope.pop()
        monkeypatch.setattr(classify_module, name, run)

    def no_linode(self, *args):
        raise AssertionError("LinODE built")

    steps = {"level_of", "_univariate_form", "_homogenize",
             "_transported_invariant"}
    for owner in (algebra_module, flowcore_module, birmap_module):
        watch(owner)
    for name in steps:
        enter(name)
    monkeypatch.setattr(odesolve_module.LinODE, "__init__", no_linode)
    fields = [e.vf for e in zoo()]
    fields += [vector_field(f) for seed in (2, 7)
               for _, _, f in _seeded_conjugates(random.Random(seed))]
    for vf in fields:
        assert isinstance(classify_module._classify_by_form(vf), RationalFlow)
    assert ran == steps
    assert seen == []


def test_rational_solutions_makes_no_failing_division(monkeypatch):
    # multiplicities are found by a division that reports failure (None)
    # without raising, so canonicalize of the seeded conjugates runs no exact
    # division inside rational_solutions that fails, but for the one probe
    # that ends each multiplicity count (algebra._multiplicity, whose
    # divisions are watched while odesolve calls it)
    failed, counts, inside = [], [], []
    div, multiplicity = algebra_module._ldiv, odesolve_module._multiplicity

    def spied(f, g, watched=True):
        q = div(f, g)
        if q is None and watched:
            failed.append((f, g))
        return q

    def counted(Q, pi):
        counts.append(pi)
        inside.append(pi)
        try:
            return multiplicity(Q, pi)
        finally:
            inside.pop()

    monkeypatch.setattr(odesolve_module, "_ldiv", spied)
    monkeypatch.setattr(algebra_module, "_ldiv",
                        lambda f, g: spied(f, g, bool(inside)))
    monkeypatch.setattr(odesolve_module, "_multiplicity", counted)
    cases = [f for seed in (3, 5)
             for _, _, f in _seeded_conjugates(random.Random(seed))]
    for f in cases:
        assert isinstance(canonicalize(f), RationalFlow)
    assert counts and [g for _, g in failed] == counts, failed


def test_pN_map():
    p = pN_map(canonical_flow(3))
    assert (p.X, p.Y, p.Z, p.N) == (0, 2, 0, 3)
    p = pN_map(lookup("Phi_2").flow)
    assert (p.X, p.Y, p.Z, p.N) == (-1, -1, 1, 2)
    with pytest.raises(AlgebraError):
        pN_map(canonical_flow(1))


def test_phat_map():
    for name in ("phi_sph_inf", "phi_tor_inf", "phi_tor_1", "Psi",
                 "Phi_1", "Phi_1_prime", "phi_-1", "phi1_1", "phi_sph_1"):
        entry = lookup(name)
        assert phat_map(entry.flow) == entry.coords, name
    with pytest.raises(AlgebraError):
        phat_map(canonical_flow(2))


def test_dual_of_canonical():
    for N in (2, 3, 4):
        g = dual(canonical_flow(N))
        expect = Flow(_rf(X, X + 1), _rf(Y, (X + 1) ** (N + 1)))
        assert g == expect


def test_dual_is_involution_on_level2():
    for entry in zoo():
        if entry.level == 2:
            assert dual(dual(entry.flow)) == entry.flow, entry.name


def test_dual_swaps_Phi2():
    g = dual(lookup("Phi_2").flow)
    assert verify_translation(g)
    assert dual(g) == lookup("Phi_2").flow


def test_dual_commutes_with_conjugation():
    # off the zoo: the dual of a^-1 o f o a is the dual of f conjugated by
    # i0 o a o i0, for seeded maps a of degree 1 and 2
    i0 = HomBir.linear(LinearMap2(0, 1, 1, 0))
    rng = random.Random(31)
    flows = [canonical_flow(3)] + [e.flow for e in zoo() if e.level == 2]
    cases = 0
    for f in flows:
        g = dual(f)
        for deg in (1, 2, 2):
            a = _seeded_hombir(rng, deg)
            expect = conjugate_flow(g, i0.compose(a).compose(i0))
            assert dual(conjugate_flow(f, a)) == expect, (f, a)
            cases += 1
    assert cases == 18


@pytest.mark.parametrize("fn, text", [
    (dual, "u = x*(y+1) + y^2; v = y/(y+1)"),
    (dual, "u = x*(y+1)^2 + x^2; v = y/(y+1)"),
    (pN_map, "u = x*(y+1) + y^2; v = y/(y+1)"),
    (pN_map, "u = x*(y+1)^2 + x^2; v = y/(y+1)"),
    (phat_map, "u = x/(x+1) + x^2; v = y/(y+1)"),
])
def test_dual_and_coordinates_reject_non_flows(fn, text):
    # each map has a 2-homogenic jet field of level 2 or 1 but fails the
    # translation equation: dual and the coordinate maps reject it as
    # canonicalize does
    with pytest.raises(AlgebraError, match="^not a flow: "):
        fn(parse_flow(text))


# -- symmetric families ----------------------------------------------------

def test_symmetric_families_translate():
    from projflow import is_i0_symmetric
    for N, which in ((1, "Phi"), (1, "phi_tor_1"), (1, "Psi"),
                     (2, "Phi"), (-2, "Phi"), (3, "Phi")):
        f = symmetric_family(N, which)
        assert verify_translation(f)
        assert is_i0_symmetric(f)


def test_zoo_lookup():
    assert lookup("phi_2").flow == canonical_flow(2)
    with pytest.raises(KeyError):
        lookup("nope")
