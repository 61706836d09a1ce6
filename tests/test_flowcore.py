import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from projflow import (
    Flow,
    HomBir,
    LinearMap2,
    VectorField,
    Poly,
    RatFn,
    check_boundary,
    verify_translation,
    verify_pde,
    vector_field,
    level_of,
    zeros_poles,
    is_i0_symmetric,
    level0_J,
    level0_flow,
    compose_flows_level0,
    canonical_flow,
    conjugate_flow,
    kapa,
    lookup,
    uniN,
    zoo,
)
from projflow.flowcore import _jacobian_field

X = Poly.var(0, 2)
Y = Poly.var(1, 2)


def test_identity_flow():
    f = Flow.identity()
    assert f.is_identity()
    assert verify_translation(f)
    assert check_boundary(f)


def test_boundary_counterexample():
    f = Flow(RatFn(X, (X + 1) ** 2), RatFn(Y, Y + 1))
    assert not verify_translation(f)


def test_zoo_translation_and_fields():
    for e in zoo():
        assert verify_translation(e.flow), e.name
        assert vector_field(e.flow) == e.vf, e.name
        assert level_of(e.vf).is_level(e.level), e.name


def test_zeros_poles_zoo():
    for e in zoo():
        assert zeros_poles(e.vf) == (e.zeros, e.poles), e.name


def test_pde_matches_translation():
    for e in zoo():
        assert verify_pde(e.flow), e.name
    bad = Flow(RatFn(X, (X + 1) ** 2), RatFn(Y, Y + 1))
    assert not verify_pde(bad)


def _seeded_conjugates(rng):
    """Conjugates of phi_N, N in {1, -1, 2}, by two maps (P, Q; L) of
    degree 1 and two of degree 2, with coefficients in {-1, 0, 1}."""
    out = []
    for deg in (1, 1, 2, 2):
        while True:
            P, Q = (sum((rng.randint(-1, 1) * X ** i * Y ** (deg - i)
                         for i in range(deg + 1)), Poly.zero(2))
                    for _ in range(2))
            a, b, c, d = (rng.randint(-1, 1) for _ in range(4))
            if P.is_zero() or Q.is_zero() or a * d == b * c:
                continue
            h = HomBir(P, Q, LinearMap2(a, b, c, d))
            if h.degree() == deg:
                break
        out.append(conjugate_flow(canonical_flow(rng.choice((1, -1, 2))), h))
    return out


def test_vector_field_routes_agree():
    # the boundary expansion and the Jacobian formula give the same field
    rng = random.Random(2)
    flows = [e.flow for e in zoo()] + _seeded_conjugates(rng)
    for N in (2, 3):
        sigma, tau, kappa = (Fraction(rng.choice((-3, -1, 1, 2)),
                                      rng.randint(1, 3)) for _ in range(3))
        flows.append(kapa(N, kappa))
        if sigma * tau != N:
            flows.append(uniN(N, sigma, tau))
    for f in flows:
        assert check_boundary(f), f
        assert vector_field(f) == _jacobian_field(f), f


def test_level_of_special_cases():
    # level 1: one partial of S = y*w - x*r vanishes
    lvl = level_of(VectorField(RatFn.const(0, 2), RatFn(-Y * Y)))
    assert lvl.is_level(1)
    # non-integer discriminant
    lvl = level_of(vecfield(1, 0, -1))
    assert lvl.tag == "NonIntegerSquare"
    # pseudo-log marker: value 0
    lvl = level_of(vecfield(-1, -1, 0))
    assert lvl.tag == "NonIntegerSquare" and lvl.value == 0


def vecfield(U, V, W):
    w = U * X * X + V * X * Y + W * Y * Y
    return VectorField(RatFn(w), RatFn(-Y * Y))


def test_level0_group_law():
    J1 = RatFn(X + Y)
    J2 = RatFn(2 * X - Y)
    f1, f2 = level0_flow(J1), level0_flow(J2)
    assert level0_J(f1) == J1
    f12 = compose_flows_level0(f1, f2)
    assert level0_J(f12) == J1 + J2
    assert verify_translation(f12)


def test_canonical_flow_all_integers():
    for N in range(-4, 5):
        f = canonical_flow(N)
        assert verify_translation(f), N
        if N != 1:
            assert level_of(vector_field(f)).is_level(abs(N) if N else 0) \
                or level_of(vector_field(f)).is_level(1)


def test_i0_symmetry():
    assert is_i0_symmetric(lookup("phi_tor_1").flow)
    assert is_i0_symmetric(lookup("Phi_1").flow)
    assert not is_i0_symmetric(canonical_flow(2))


@given(st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_level0_flows_satisfy_translation(a, b):
    if a == 0 and b == 0:
        return
    f = level0_flow(RatFn(a * X + b * Y))
    assert verify_translation(f)
    assert level_of(vector_field(f)).is_level(0)
