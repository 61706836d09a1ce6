import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from projflow import (
    AlgebraError,
    CapExceeded,
    LinODE,
    NoRationalSolution,
    Poly,
    RatFn,
    VectorField,
    VerificationFailed,
    dehomogenize,
    differ_ode,
    divexact,
    homogenize_0,
    orbit_ode_reduce,
    rational_solutions,
    solve_differ,
    vector_field,
    canonical_flow,
)
from projflow import odesolve
from projflow.algebra import _form_list, _form_lists, _ladd, _ldiff, _lmul

import odesolve_reference

X = Poly.var(0, 2)
Y = Poly.var(1, 2)
T = Poly.var(0, 1)


def _ints(f):
    """The coefficient list of a univariate Poly with integer coefficients."""
    c, den = _form_list(f)
    assert den == 1
    return c


def _const(c):
    return RatFn.const(Fraction(c), 1)


def test_radial_equation_N_ge_2():
    # -N x f' - f = -1 has particular f = 1 and no rational homogeneous
    # solution (the missing one is an irrational power of x)
    for N in (2, 3, 5):
        ode = LinODE(RatFn(T) * Fraction(-N), _const(-1), _const(-1))
        sol = rational_solutions(ode)
        assert sol["particular"] == RatFn.const(Fraction(1), 1)
        assert sol["homogeneous_basis"] is None


def test_radial_equation_N_1():
    ode = LinODE(RatFn(T) * Fraction(-1), _const(-1), _const(-1))
    sol = rational_solutions(ode)
    assert sol["particular"] == RatFn.const(Fraction(1), 1)
    assert sol["homogeneous_basis"] == RatFn(Poly.const(1, 1), T)


def test_derivative_zero():
    ode = LinODE(_const(1), _const(0), _const(0))
    sol = rational_solutions(ode)
    assert sol["particular"] is not None and sol["particular"].is_zero()
    assert sol["homogeneous_basis"] == RatFn.const(Fraction(1), 1)


def test_residual_is_zero_property():
    odes = [
        LinODE(RatFn(T * T + Poly.const(1, 1)), RatFn(T), _const(1)),
        LinODE(RatFn(T), _const(2), RatFn(T * T)),
        LinODE(_const(1), RatFn(T), RatFn(T)),
    ]
    for ode in odes:
        sol = rational_solutions(ode)
        f = sol["particular"]
        if f is not None:
            assert odesolve_reference.residual(ode, f).is_zero()
        if sol["homogeneous_basis"] is not None:
            g = sol["homogeneous_basis"]
            assert (ode.p * g.derivative(0) + ode.q * g).is_zero()


def test_nonexistence_certified():
    # x f' - (1/2) f = 0 has only the irrational solution x^{1/2}
    ode = LinODE(RatFn(T), _const(Fraction(-1, 2)), _const(0))
    sol = rational_solutions(ode)
    assert sol["particular"] is not None and sol["particular"].is_zero()
    assert sol["homogeneous_basis"] is None


def test_wrong_solution_fails_certificate(monkeypatch):
    # the certificate checks must raise, not assert, so that they also run
    # under python -O
    solve = odesolve._solve_linear_system

    def wrong_particular(rows, rhs, ncols):
        particular, nullspace, s = solve(rows, rhs, ncols)
        return [c + 1 for c in particular], nullspace, s

    def wrong_null(rows, rhs, ncols):
        particular, nullspace, s = solve(rows, rhs, ncols)
        return particular, [[c + 1 for c in v] for v in nullspace], s

    monkeypatch.setattr(odesolve, "_solve_linear_system", wrong_particular)
    ode = LinODE(RatFn(T) * Fraction(-2), _const(-1), _const(-1))
    with pytest.raises(VerificationFailed):
        rational_solutions(ode)
    monkeypatch.setattr(odesolve, "_solve_linear_system", wrong_null)
    ode = LinODE(RatFn(T) * Fraction(-1), _const(-1), _const(-1))
    with pytest.raises(VerificationFailed):
        rational_solutions(ode)


def test_cap_exceeded():
    # x f' - 500 f = 0 -> rational solution x^500 beyond the degree cap
    ode = LinODE(RatFn(T), _const(-500), _const(0))
    with pytest.raises(CapExceeded):
        rational_solutions(ode)


def test_dehomogenize_homogenize_roundtrip():
    A = RatFn(X * X + 3 * X * Y, Y * Y - X * Y)
    t = dehomogenize(A)
    assert homogenize_0(t) == A


def test_dehomogenize_sums_terms_that_meet_at_y1():
    # x*y^2 and -x*y, x^3*y and -x^3 meet at y = 1 and cancel
    f = RatFn(X * Y * Y - X * Y + X ** 3 * Y - X ** 3 + 2 * X * X,
              X * Y * Y + 3 - Y)
    assert dehomogenize(f) == RatFn(2 * T * T, T + 2)
    with pytest.raises(AlgebraError):
        dehomogenize(RatFn(X, X * Y - X + Y - 1))


def _homogenize_by_terms(f):
    """homogenize_0 as it was: each side's terms as a form of degree k
    through ``Poly.terms``, then reduced."""
    k = max(f.num.total_degree(), f.den.total_degree())

    def conv(p):
        return Poly(2, {(i, k - i): c for (i,), c in p.terms.items()})
    return RatFn(conv(f.num), conv(f.den))


_coeffs = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                   max_size=5)


@given(_coeffs, _coeffs.filter(any))
@example([1], [1, 0, 1])               # a constant numerator
@example([-2, 0, 0, 1], [5])           # a constant denominator
@example([1, 0, 0, 1], [-2, 1])        # a denominator of lower degree
@example([], [3])                      # zero
@settings(max_examples=100, deadline=None)
def test_homogenize_0_matches_terms_construction(num, den):
    f = RatFn(*(Poly(1, {(i,): c for i, c in enumerate(cs)})
                for cs in (num, den)))
    A = homogenize_0(f)
    assert A == _homogenize_by_terms(f)
    assert dehomogenize(A) == f


def test_solve_differ_sphere_family():
    # level-1 field ((x-y)^2, (x-y)^2): one-parameter family
    vf = VectorField((X - Y) * (X - Y), (X - Y) * (X - Y))
    sol = solve_differ(vf)
    f = sol["particular"]
    g = sol["homogeneous_basis"]
    assert g is not None
    # A_sigma(x, y) = y^2/(x-y)^2 + sigma * y/(x-y)
    A0 = RatFn(Y * Y, (X - Y) * (X - Y))
    A1 = RatFn(Y, X - Y)
    base = homogenize_0(f)
    hom = homogenize_0(g)
    # base must be A0 + c*A1 for some rational c; hom proportional to A1
    assert hom.num * A1.den == hom.den * A1.num or \
        (hom / A1).num.is_constant() and (hom / A1).den.is_constant()
    diff = base - A0
    if not diff.is_zero():
        ratio = diff / A1
        assert ratio.num.is_constant() and ratio.den.is_constant()
    for sigma in (Fraction(0), Fraction(2), Fraction(-1, 3)):
        cand = A0 + A1 * sigma
        t = dehomogenize(cand)
        ode = differ_ode(vf)
        assert odesolve_reference.residual(ode, t).is_zero()


def test_solve_differ_canonical_unique():
    for N in (2, 3):
        vf = vector_field(canonical_flow(N))
        sol = solve_differ(vf)
        assert sol["particular"] == RatFn.const(Fraction(1), 1)
        assert sol["homogeneous_basis"] is None


def test_solve_differ_no_rational_solution():
    # genus-1 field: the univariate form still exists; use a field where the
    # equation is blocked instead -- pseudo-log-like (-x^2-xy, -y^2) has a
    # rational solution, so construct a field with irrational indicial data
    vf = VectorField(2 * X * X - Y * Y, Poly.zero(2))
    try:
        solve_differ(vf)
    except NoRationalSolution:
        pass  # acceptable: certified nonexistence
    # either outcome must be consistent: if a solution is returned it solves
    # the equation (checked inside rational_solutions via residual assert)


def test_negative_degree_bound_certifies_no_solution():
    # dP - 1 = dQ with a non-integer m*, no pole allowed and a constant
    # right side: every degree candidate is below -1, so no numerator exists
    for ode in (LinODE(2 * T ** 4 + 3 * T ** 3 + T * T - 3 * T + 3,
                       Fraction(-3, 2) * T ** 3 + Fraction(1, 2) * T * T
                       + T - 1, 2),
                LinODE(Fraction(-1, 2) * T * T - 3 * T,
                       -T ** 3 - Fraction(1, 2) * T * T + T + 1, -1)):
        assert rational_solutions(ode) == {"particular": None,
                                           "homogeneous_basis": None}


def test_indicial_candidate_solves_its_congruence():
    # e * A * pi' = B mod pi: B built from a known e, plus a multiple of pi;
    # pi has integer coefficients and A, B go in as integer lists over one
    # common denominator, which leaves the congruence unchanged
    rng = random.Random(5)

    def poly(deg):
        return Poly(1, {(k,): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for k in range(deg + 1)})

    seen = set()
    for _ in range(200):
        pi = T * T - rng.choice((2, 3, 5, -1)) if rng.random() < 0.5 \
            else rng.randint(1, 2) * T - rng.randint(-3, 3)
        A, C = poly(rng.randint(0, 3)), poly(rng.randint(0, 2))
        if A.is_zero():
            continue
        try:
            divexact(A, pi)
            continue  # A * pi' vanishes mod pi: no inverse
        except AlgebraError:
            pass
        e = Fraction(rng.randint(-2, 4), rng.choice((1, 1, 2)))
        B = e * A * pi.derivative(0) + pi * C
        if B.is_zero():
            continue
        want = int(e) if e.denominator == 1 and e > 0 else None
        L = lcm(A.den, B.den)
        got = odesolve._indicial_candidate(
            _ints(pi), _ints(A * L), _ints(B * L))
        assert got == want, (pi, A, B, e)
        seen.add(want is None)
    assert seen == {True, False}


def _uni_poly(c):
    return Poly(1, {(k,): Fraction(v) for k, v in enumerate(c) if v})


@given(st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(
           lambda c: c[-1]),
       st.lists(st.integers(-6, 6), min_size=1, max_size=5),
       st.lists(st.integers(-4, 4), max_size=3),
       st.integers(-2, 4), st.integers(1, 3), st.integers(1, 3), st.booleans())
@settings(max_examples=200, deadline=None)
@example(pi=[-3, 0, -2], A=[1], C=[], e=2, s=1, t=1, planted=True)
@example(pi=[1, 2], A=[0, 0, 5], C=[1], e=3, s=2, t=3, planted=True)
def test_indicial_candidate_matches_fraction_remainders(pi, A, C, e, s, t,
                                                        planted):
    # the integer pseudo-remainders against the Fraction remainders of the
    # reference, with lc(pi) of either sign and lists longer or shorter than
    # pi; a planted B = s (e A pi' + pi C) against t A has the ratio e s / t
    if not any(A):
        return
    if planted:
        B = _ladd(_lmul([e * s * v for v in A], _ldiff(pi)),
                  _lmul([s * v for v in C], pi))
    else:
        B = [e, s, t] + C
    A = [t * v for v in A]
    if not any(B):
        return
    want = odesolve_reference._indicial_candidate(
        _uni_poly(pi), _uni_poly(A), _uni_poly(B))
    assert odesolve._indicial_candidate(pi, A, B) == want


def test_orbit_ode_phi2():
    vf = VectorField(X * Y, -(Y * Y))
    ode = orbit_ode_reduce(vf, 2)
    sol = rational_solutions(ode)
    w = sol["homogeneous_basis"]
    assert w == RatFn(T)  # w(t) = t, so W = x*y


def test_orbit_ode_genus1():
    vf = VectorField(X * X - 2 * X * Y, -2 * X * Y + Y * Y)
    ode = orbit_ode_reduce(vf, 3)
    sol = rational_solutions(ode)
    w = sol["homogeneous_basis"]
    assert w == RatFn(T * T - T)  # W = xy(x-y) after homogenization


def test_orbit_ode_constant():
    vf = VectorField(Poly.zero(2), -(Y * Y))
    ode = orbit_ode_reduce(vf, 1)
    sol = rational_solutions(ode)
    assert sol["homogeneous_basis"] == RatFn(T)


def test_orbit_ode_precondition():
    vf = VectorField(X * Y, -(Y * Y))
    with pytest.raises(Exception):
        orbit_ode_reduce(vf, 0)


def test_homogeneous_dimension_at_most_one():
    odes = [
        LinODE(_const(1), _const(0), _const(0)),
        LinODE(RatFn(T), _const(-2), _const(0)),
        LinODE(RatFn(T * T), RatFn(T), _const(0)),
    ]
    for ode in odes:
        sol = rational_solutions(ode)
        assert sol["homogeneous_basis"] is None or isinstance(
            sol["homogeneous_basis"], RatFn)


@st.composite
def _uni_ratfns(draw, allow_zero=True):
    def poly():
        return Poly(1, {(k,): Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
                        for k in range(draw(st.integers(0, 3)))})
    num, den = poly(), poly()
    if den.is_zero():
        den = Poly.const(1, Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3))))
    if num.is_zero() and not allow_zero:
        num = Poly.const(1, 1)
    return RatFn(num, den)


@given(_uni_ratfns(False), _uni_ratfns(), _uni_ratfns(), _uni_ratfns(),
       _uni_ratfns(False), st.booleans())
@settings(max_examples=120, deadline=None)
def test_solved_by_agrees_with_residual(p, q, r, f, g, planted):
    # the polynomial identity decides what the reduced residual decides, on
    # a pair carrying the common factor g
    if planted:
        r = p * f.derivative(0) + q * f
    ode = LinODE(p, q, r)
    lists = odesolve._ode_lists(ode)
    unreduced = _form_lists(f.num * g.num, f.den * g.num)[0]
    assert (odesolve._solves(*lists, *unreduced)
            == odesolve_reference.residual(ode, f).is_zero())
    if planted:
        assert odesolve._solves(*lists, *_form_lists(f.num, f.den)[0])


@given(_uni_ratfns(False), _uni_ratfns(), _uni_ratfns(False), _uni_ratfns(),
       st.integers(-1, 4))
@settings(max_examples=80, deadline=None)
def test_operator_system_matches_operator_images(p, q, d, r, M):
    # column k holds T(x^k) = P ((x^k)' den - x^k den') + Q x^k den, row m
    # the coefficient of x^m, up to the highest power that occurs; the
    # system takes integer lists, so each polynomial is first scaled to
    # integer coefficients
    P, Q, den, R = (f.num * f.num.den for f in (p, q, d, r))
    images = [(P * ((T ** k).derivative(0) * den - T ** k * den.derivative(0))
               + Q * T ** k * den).terms for k in range(M + 1)]
    top = max([R.total_degree(), 0] + [max((e for (e,) in img), default=0)
                                       for img in images])
    rows, rhs = odesolve._operator_system(*map(_ints, (P, Q, den, R)), M)
    zero = Fraction(0)
    assert rows == [[img.get((m,), zero) for img in images]
                    for m in range(top + 1)]
    assert rhs == [R.terms.get((m,), zero) for m in range(top + 1)]


@st.composite
def _planted_odes(draw):
    """LinODEs with small rational coefficients; half of them have the
    right side p f' + q f of a drawn rational f, so that solutions with
    poles exist."""
    p, q, r = draw(_uni_ratfns(False)), draw(_uni_ratfns()), draw(_uni_ratfns())
    if draw(st.booleans()):
        f = draw(_uni_ratfns())
        r = p * f.derivative(0) + q * f
    if draw(st.booleans()):
        # a pole of p of order one more than that of q: the indicial case
        a = draw(st.integers(-2, 2))
        p = p * RatFn((T - a) ** 2)
        q = q * RatFn(T - a) * draw(st.integers(-3, 3))
    return LinODE(p, q, r)


@given(_planted_odes())
@settings(max_examples=100, deadline=None)
def test_rational_solutions_matches_fraction_reference(ode):
    # the integer-list solver against the Fraction solver it replaced, which
    # factors with sympy and eliminates over Q
    try:
        want = odesolve_reference.rational_solutions(ode)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            rational_solutions(ode)
        return
    assert rational_solutions(ode) == want
