import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from projflow import algebra
from projflow.algebra import (
    AlgebraError,
    IdenticallySingular,
    Poly,
    RatFn,
    LinearMap2,
    divexact,
    poly_gcd,
    poly_lcm,
    linear_factors_q,
    count_real_projective_roots,
)

X = Poly.var(0, 2)
Y = Poly.var(1, 2)


def test_poly_basic_arithmetic():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X + 1) ** 2 == X * X + 2 * X + 1
    assert (p - p).is_zero()


def test_poly_gcd_oracles():
    assert poly_gcd(X * X * Y + X * Y * Y, X * X - Y * Y) == X + Y
    assert poly_gcd(X * X + Y * Y, X + Y).is_constant()


def test_divexact_roundtrip():
    a = (X + Y) ** 2 * (X - 2 * Y)
    b = X + Y
    assert divexact(a, b) * b == a


def test_linear_factors_q():
    p = X * X * Y - X * Y * Y
    scale, factors, rem = linear_factors_q(p)
    prod = Poly.const(2, scale)
    for fac, mult in factors:
        prod = prod * fac ** mult
    assert prod * rem == p
    assert rem.is_constant()


def test_linear_factors_large_coefficients():
    a, b = 10 ** 15 + 37, 10 ** 15 + 91
    start = time.perf_counter()
    p = X * X - a * b * Y * Y
    assert linear_factors_q(p) == (1, [], p)
    assert linear_factors_q((X - a * Y) * (X - b * Y)) == (
        1, [(X - b * Y, 1), (X - a * Y, 1)], Poly.const(2, 1))
    assert time.perf_counter() - start < 1


def test_linear_factors_irrational_remainder():
    p = X * X + Y * Y
    scale, factors, rem = linear_factors_q(p)
    assert factors == []
    assert not rem.is_constant()


def test_count_real_projective_roots():
    assert count_real_projective_roots(X * Y * (X - Y)) == 3
    assert count_real_projective_roots(X * X + Y * Y) == 0
    assert count_real_projective_roots((X - Y) ** 2) == 2


def test_ratfn_reduction_and_equality():
    r = RatFn(X * X - Y * Y, X + Y)
    assert r == RatFn(X - Y)
    assert RatFn(X, Y) + RatFn(Y, X) == RatFn(X * X + Y * Y, X * Y)


def test_ratfn_substitution_singular():
    r = RatFn(Poly.const(2, 1), X + Y)
    with pytest.raises(IdenticallySingular):
        r.subs((RatFn(X), RatFn(-X)))


def test_linear_map():
    L = LinearMap2(1, 2, 3, 4)
    Li = L.inverse()
    assert L.compose(Li).scalar_multiple_of_identity()
    assert L.det() == -2


def test_unit_normal_sign():
    p = -2 * X + 2 * Y
    n = p.unit_normal()
    assert n.leading_coeff() > 0
    assert n == X - Y


_coef = st.integers(-4, 4)


@st.composite
def small_poly(draw, max_deg=3):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, max_deg))
        j = draw(st.integers(0, max_deg - i))
        c = draw(_coef)
        if c:
            terms[(i, j)] = terms.get((i, j), 0) + c
    return Poly(2, {k: Fraction(v) for k, v in terms.items() if v})


@given(small_poly(), small_poly())
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(a, b):
    if a.is_zero() or b.is_zero():
        return
    g = poly_gcd(a, b)
    assert divexact(a, g) * g == a
    assert divexact(b, g) * g == b
    assert g.leading_coeff() > 0


@given(small_poly(), small_poly())
@settings(max_examples=40, deadline=None)
def test_lcm_definition(a, b):
    if a.is_zero() or b.is_zero():
        return
    m = poly_lcm(a, b)
    g = poly_gcd(a, b)
    assert (m * g).unit_normal() == (a * b).unit_normal()


@given(small_poly())
@settings(max_examples=40, deadline=None)
def test_factorization_reassembles(p):
    if p.is_zero():
        return
    hom = {}
    for e, c in p.terms.items():
        hom[e] = c
    # homogenize p for the projective factorizer
    d = max(sum(e) for e in hom)
    ph = Poly(2, {(e[0], e[1] + d - sum(e)): c for e, c in hom.items()})
    scale, factors, rem = linear_factors_q(ph)
    prod = Poly.const(2, scale)
    for fac, mult in factors:
        prod = prod * fac ** mult
    assert prod * rem == ph


def test_prs_remainders_are_primitive(monkeypatch):
    # every pseudo-remainder the gcd divides by is free of integer content
    seen = []
    prem = algebra._prem

    def recording(a, b, k):
        seen.append(b)
        return prem(a, b, k)

    monkeypatch.setattr(algebra, "_prem", recording)
    g = 3 * X * Y + 2 * Y + 5
    p = g * (X ** 3 * Y + 4 * X * X + 7 * Y * Y + X + 1)
    q = g * (2 * X ** 3 + 3 * X * Y * Y + 5 * X - 6 * Y + 2)
    assert poly_gcd(p, q) == g
    assert len(seen) > 2
    for b in seen:
        coeffs = [c for part in b.values() for c in part.terms.values()]
        assert all(c.denominator == 1 for c in coeffs)
        content = 0
        for c in coeffs:
            content = math.gcd(content, c.numerator)
        assert content == 1


# -- the integer kernel against sympy's QQ rings ---------------------------

_RINGS = {n: ring("x,y,z"[: 2 * n - 1], QQ)[0] for n in (1, 2, 3)}


@st.composite
def rational_polys(draw, nvars):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        e = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        terms[e] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
    return Poly(nvars, terms)


def _to_ring(p):
    R = _RINGS[p.nvars]
    return R.from_dict({e: QQ(c.numerator, c.denominator)
                        for e, c in p.terms.items()})


def _from_ring(f, nvars):
    return Poly(nvars, {e: Fraction(int(c.numerator), int(c.denominator))
                        for e, c in f.items()})


@st.composite
def poly_triples(draw):
    n = draw(st.integers(1, 3))
    return tuple(draw(rational_polys(n)) for _ in range(3))


@given(poly_triples())
@settings(max_examples=80, deadline=2000)
def test_mul_and_divexact_match_sympy(triple):
    a, b, c = triple
    prod = a * b
    assert prod == _from_ring(_to_ring(a) * _to_ring(b), a.nvars)
    assert all(type(v) is Fraction for v in prod.terms.values())
    if b.is_zero():
        return
    quo = divexact(prod, b)
    assert quo == a
    assert all(type(v) is Fraction for v in quo.terms.values())
    # c is rarely a multiple of b; sympy's remainder says when it is
    q, r = _to_ring(c).div(_to_ring(b))
    if r:
        with pytest.raises(AlgebraError):
            divexact(c, b)
    else:
        assert divexact(c, b) == _from_ring(q, c.nvars)
