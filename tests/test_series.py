import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.fields import field
from sympy.polys.ring_series import rs_mul, rs_series_inversion
from sympy.polys.rings import ring

from projflow import algebra, series as series_mod
from projflow import (
    AlgebraError,
    Flow,
    Poly,
    PoleAtDirection,
    RatFn,
    VectorField,
    canonical_flow,
    diagonal_series,
    expand_flow,
    expand_from_vf,
    kapa,
    prime_growth_diagnostic,
    lookup,
    vector_field,
)

import series_reference

X = Poly.var(0, 2)
Y = Poly.var(1, 2)

# Q(x, y), and power series in z over it
_F = field("x,y", QQ)[0]
_RZ, _Z = ring("z", _F.to_domain())


def test_exponential_jets():
    jets = expand_from_vf(VectorField(X * Y, Poly.zero(2)), 6)
    for i in range(1, 7):
        expect = RatFn(X * Y ** (i - 1)) * Fraction(1, math.factorial(i - 1))
        assert jets.u_parts[i - 1] == expect
        assert jets.v_parts[i - 1] == (RatFn.var(1, 2) if i == 1
                                       else RatFn(Poly.zero(2)))


def test_zero_field_gives_identity_jets():
    jets = expand_from_vf(VectorField(Poly.zero(2), Poly.zero(2)), 5)
    assert jets.u_parts[0] == RatFn.var(0, 2)
    for p in jets.u_parts[1:]:
        assert p.is_zero()
    for p in jets.v_parts[1:]:
        assert p.is_zero()


def test_order_precondition():
    with pytest.raises(AlgebraError):
        expand_from_vf(VectorField(X * Y, Poly.zero(2)), 1)


def test_expand_flow_order_precondition():
    for K in (1, 0, -3):
        with pytest.raises(AlgebraError, match="order must be >= 2"):
            expand_flow(canonical_flow(2), K)


def test_genus1_diagonal_coefficients():
    vf = VectorField(X * X - 2 * X * Y, -2 * X * Y + Y * Y)
    jets = expand_from_vf(vf, 9)
    coeffs = diagonal_series(jets, (Fraction(1), Fraction(-1)))
    assert coeffs == [Fraction(c) for c in
                      (1, 3, 3, 3, 6, 9, 12, Fraction(117, 7),
                       Fraction(171, 7))]


def test_genus1_f_slices():
    # slices at fixed y of the degree-2 parts recover 1 - 2y + y^2 and 1 - y
    vf = VectorField(X * X - 2 * X * Y, -2 * X * Y + Y * Y)
    jets = expand_from_vf(vf, 3)
    w2 = jets.u_parts[1]
    # w2 = x^2 - 2xy = x^2 (1 - 2(y/x)); coefficient pattern check
    assert w2 == RatFn(X * X - 2 * X * Y)
    assert jets.v_parts[1] == RatFn(-2 * X * Y + Y * Y)


def test_diagonal_exponential_pattern():
    jets = expand_from_vf(VectorField(X * Y, Poly.zero(2)), 8)
    coeffs = diagonal_series(jets, (Fraction(1), Fraction(1)))
    assert coeffs == [Fraction(1, math.factorial(i)) for i in range(8)]


def test_diagonal_identity():
    ident = Flow(RatFn.var(0, 2), RatFn.var(1, 2))
    jets = expand_flow(ident, 5)
    coeffs = diagonal_series(jets, (Fraction(2), Fraction(3)))
    assert coeffs == [Fraction(2), 0, 0, 0, 0]


def test_expand_flow_phi2():
    jets = expand_flow(canonical_flow(2), 4)
    assert jets.u_parts[1] == RatFn(X * Y)
    assert jets.v_parts[1] == RatFn(-(Y * Y))


def test_expand_flow_matches_vf_expansion():
    pr = lookup("phi_pr").flow
    jets = expand_flow(pr, 3)
    vf = VectorField(-(X * (X + Y)), -(Y * (X + Y)))
    assert jets == expand_from_vf(vf, 3)


def test_zoo_consistency_small_order():
    for name in ("phi0_1", "phi_sph_1", "phi_2", "phi2_1", "Phi_2"):
        entry = lookup(name)
        assert expand_flow(entry.flow, 5) == expand_from_vf(
            vector_field(entry.flow), 5)


def test_pole_at_direction():
    f = lookup("Psi").flow
    jets = expand_flow(f, 6)
    with pytest.raises(PoleAtDirection):
        # some jet has denominator (x - y)^2; the diagonal hits the pole
        diagonal_series(jets, (Fraction(1), Fraction(1)))


@pytest.mark.parametrize("name", ["Psi", "phi2_3", "phi1_1", "phi_sph_1"])
def test_diagonal_series_matches_jet_evaluation(name):
    # the homogeneous Horner pass of each jet (over the terms of phi1_1's
    # monomial jets, over the list of the dense ones) gives what RatFn.eval
    # gives, at directions with non-integer coordinates, and raises
    # PoleAtDirection where the evaluation divides by zero
    jets = expand_from_vf(vector_field(lookup(name).flow), 12)
    poles = 0
    for direction in ((Fraction(2, 3), Fraction(-5, 7)),
                      (Fraction(-1, 2), Fraction(4)), (Fraction(1), 1),
                      (Fraction(0), Fraction(3, 5))):
        try:
            want = [p.eval(direction) for p in jets.u_parts]
        except ZeroDivisionError:
            poles += 1
            with pytest.raises(PoleAtDirection):
                diagonal_series(jets, direction)
            continue
        assert diagonal_series(jets, direction) == want
    assert poles < 4


def test_prime_growth_unbounded_for_genus1():
    vf = VectorField(X * X - 2 * X * Y, -2 * X * Y + Y * Y)
    jets = expand_from_vf(vf, 60)
    coeffs = diagonal_series(jets, (Fraction(1), Fraction(-1)))
    report = prime_growth_diagnostic(coeffs)
    assert report["unbounded_denominator_primes_suspected"] is True
    assert report["max_prime"] is not None and report["max_prime"] > 10


def test_prime_growth_bounded_for_rational_flow():
    jets = expand_flow(canonical_flow(2), 100)
    coeffs = diagonal_series(jets, (Fraction(1), Fraction(1, 2)))
    report = prime_growth_diagnostic(coeffs)
    assert report["unbounded_denominator_primes_suspected"] is False


def test_prime_growth_integer_coefficients():
    report = prime_growth_diagnostic([Fraction(k) for k in range(50)])
    assert report["max_prime"] is None
    assert report["unbounded_denominator_primes_suspected"] is False


def test_prime_growth_of_two_large_primes():
    # 100000007 and 100000037 are the first primes after 10^8; trial
    # division up to the square root took seconds on their product
    start = time.perf_counter()
    report = prime_growth_diagnostic([Fraction(1, 100000007 * 100000037)] * 50)
    assert time.perf_counter() - start < 1.0
    assert report["max_prime"] == 100000037


def test_prime_growth_needs_50():
    with pytest.raises(AlgebraError):
        prime_growth_diagnostic([Fraction(1)] * 10)


# -- jets against independent references ------------------------------------

def _field_elt(p):
    return _F.new(_F.ring.from_dict({e: QQ(c.numerator, c.denominator)
                                     for e, c in p.terms.items()}))


def _scaled(p):
    """p(xz, yz) as a polynomial in z over Q(x, y)."""
    return _RZ.from_dict({(d,): _field_elt(part)
                          for d, part in p.homogeneous_parts().items()})


def _taylor_jets(f, K):
    """Coefficients of z^0 .. z^(K-1) in f(xz, yz)/z by sympy's power-series
    inversion of the denominator."""
    num, den = _scaled(f.num), _scaled(f.den)
    m = min(d for (d,) in den.keys())
    prec = K + m + 1
    series = rs_mul(num, rs_series_inversion(den.quo(_Z ** m), _Z, prec),
                    _Z, prec)
    return [series.coeff(_Z ** (k + m + 1)) for k in range(K)]


def _assert_jets(jets, f, K):
    for parts, coord in ((jets.u_parts, f.u), (jets.v_parts, f.v)):
        assert len(parts) == K
        for got, want in zip(parts, _taylor_jets(coord, K)):
            assert _field_elt(got.num) / _field_elt(got.den) == want


def test_flow_jets_match_taylor_coefficients():
    # lowest denominator parts (x - y)^2, x^2 and x, and a constant one
    # under a five-part denominator
    for f in (lookup("Psi").flow, lookup("phi2_3").flow,
              kapa(3, Fraction(1, 2))):
        _assert_jets(expand_flow(f, 10), f, 10)


def test_field_jets_match_taylor_coefficients():
    for name in ("Psi", "phi2_3"):
        entry = lookup(name)
        _assert_jets(expand_from_vf(entry.vf, 10), entry.flow, 10)


def test_phi2_jets_closed_form():
    # phi_2 = (x + xy, y/(1 + y)): u(xz, yz)/z = x + xyz and
    # v(xz, yz)/z = sum_k (-1)^k y^(k+1) z^k
    u = [RatFn(X), RatFn(X * Y)] + [RatFn(Poly.zero(2))] * 148
    v = [RatFn(Y ** (k + 1) * (-1) ** k) for k in range(150)]
    f = canonical_flow(2)
    for jets in (expand_flow(f, 150), expand_from_vf(vector_field(f), 150)):
        assert (jets.u_parts, jets.v_parts) == (u, v)


_small = st.integers(-3, 3)


@st.composite
def rational_fields(draw):
    """(field, order): w and r binary forms of degree k + 2 over a product
    of k = 0, 1 or 2 linear forms, and an order up to 6."""
    k = draw(st.integers(0, 2))
    D = Poly.const(2, 1)
    for _ in range(k):
        a, b = draw(st.tuples(_small, _small).filter(any))
        D = D * (a * X + b * Y)

    def form():
        return sum((draw(_small) * X ** i * Y ** (k + 2 - i)
                    for i in range(k + 3)), Poly.zero(2))

    return VectorField(RatFn(form(), D), RatFn(form(), D)), draw(st.integers(2, 6))


@given(rational_fields())
@settings(max_examples=40, deadline=None)
def test_field_jets_satisfy_lie_recurrence(case):
    # the recurrence i u_(i+1) = u_(i),x w + u_(i),y r in RatFn arithmetic
    vf, K = case
    jets = expand_from_vf(vf, K)
    for parts, start in ((jets.u_parts, RatFn.var(0, 2)),
                         (jets.v_parts, RatFn.var(1, 2))):
        assert len(parts) == K and parts[0] == start
        for i in range(1, K):
            u = parts[i - 1]
            assert i * parts[i] == u.derivative(0) * vf.w + u.derivative(1) * vf.r


def test_polynomial_field_jets_take_two_products_per_step(monkeypatch):
    # a polynomial jet has denominator 1, so a step of the Lie recurrence on
    # a polynomial field is one pass of ``_lderive`` over the jet, forming
    # n_x P + n_y Q: the terms of the quotient rule that vanish with d_x and
    # d_y are never formed, and the denominator takes no gcd or content
    vf = VectorField(X * X - 2 * X * Y, -2 * X * Y + Y * Y)
    K = 12
    calls = []
    lderive = series_mod._lderive

    def counting(c, P, Q):
        calls.append(1)
        return lderive(c, P, Q)

    def forbidden(*args):
        raise AssertionError("called on a polynomial field")

    monkeypatch.setattr(series_mod, "_lderive", counting)
    for name in ("_lmul", "_form_gcd", "_content"):
        monkeypatch.setattr(algebra, name, forbidden)
        monkeypatch.setattr(series_mod, name, forbidden)
    expand_from_vf(vf, K)
    assert len(calls) == 2 * (K - 1)


_big = st.integers(-2 ** 200, 2 ** 200)


@st.composite
def form_lists(draw, max_len):
    """A list of at most max_len integers, often with zeros at either end."""
    core = draw(st.lists(st.one_of(st.just(0), _small, _big), max_size=max_len))
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return ([0] * lead + core + [0] * trail)[:max_len]


@given(form_lists(13), form_lists(4), form_lists(4))
@settings(max_examples=300, deadline=None)
def test_lderive_matches_two_convolutions(c, P, Q):
    # equal lists, so of equal length, trailing zeros included
    assert algebra._lderive(c, P, Q) == series_reference.lderive(c, P, Q)


def _seeded_field(rng, k, irreducible=False):
    """w and r binary forms of degree k + 2 with rational coefficients over
    a product of k linear forms, or over x^2 + c y^2 for k = 2."""
    D = Poly.const(2, 1)
    if irreducible:
        D = X * X + rng.randint(1, 3) * Y * Y
    else:
        for _ in range(k):
            D = D * (rng.randint(-3, 3) * X + rng.choice((-2, -1, 1, 2)) * Y)

    def form():
        return sum((Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                    * X ** i * Y ** (k + 2 - i) for i in range(k + 3)),
                   Poly.zero(2))

    return VectorField(RatFn(form(), D), RatFn(form(), D))


def test_field_jets_match_the_poly_recurrence():
    # polynomial fields (k = 0) and rational ones (k = 1, 2) to order 12
    rng = random.Random(21)
    for k in (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2):
        for irreducible in (False, True) if k == 2 else (False,):
            vf = _seeded_field(rng, k, irreducible)
            jets = expand_from_vf(vf, 12)
            assert (jets.u_parts, jets.v_parts) == \
                series_reference.field_jets(vf, 12)
    # the genus-1 field to order 30: long lists, where an index slip of the
    # Lie step would show
    vf = VectorField(X * X - 2 * X * Y, -2 * X * Y + Y * Y)
    jets = expand_from_vf(vf, 30)
    assert (jets.u_parts, jets.v_parts) == series_reference.field_jets(vf, 30)
