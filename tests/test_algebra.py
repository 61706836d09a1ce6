import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring

from projflow import algebra
from projflow.algebra import (
    AlgebraError,
    CapExceeded,
    IdenticallySingular,
    Poly,
    RatFn,
    LinearMap2,
    divexact,
    poly_gcd,
    linear_factors_q,
    count_real_projective_roots,
    poly_dot,
)

import eval_reference

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


# -- the integer kernel against sympy's QQ rings ---------------------------

_RINGS = {n: ring("x,y"[: 2 * n - 1], QQ)[0] for n in (1, 2)}


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
    n = draw(st.integers(1, 2))
    return tuple(draw(kernel_polys(n)) for _ in range(3))


@given(poly_triples())
@settings(max_examples=80, deadline=2000)
def test_mul_and_divexact_match_sympy(triple):
    a, b, c = triple
    assert a + b == _from_ring(_to_ring(a) + _to_ring(b), a.nvars)
    assert a - b == _from_ring(_to_ring(a) - _to_ring(b), a.nvars)
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


@given(poly_triples(), st.integers(-6, 6), st.integers(1, 5))
@settings(max_examples=80, deadline=2000)
def test_results_are_in_normal_form(triple, n, d):
    # ints / den in lowest terms with den > 0, so that equality is structural
    a, b, c = triple
    lowest = tuple(min((e[i] for e in a.terms), default=0)
                   for i in range(a.nvars))
    results = [a + b, a - b, a * b, a * Fraction(n, d), a.derivative(0),
               a.eval_hom([b, c, a][: a.nvars], c), a.unit_normal(),
               divexact(a, Poly(a.nvars, {lowest: 1}))]
    results += a.homogeneous_parts().values()
    if not b.is_zero():
        results.append(divexact(a * b, b))
    for p in results:
        assert p.den > 0 and gcd(p.den, *p.ints.values()) == 1
        assert all(p.ints.values())
        assert p == Poly(p.nvars, p.terms)


@st.composite
def kernel_polys(draw, nvars):
    """Small polynomials with rational coefficients, zero and constants
    included, since they take the scalar paths of the kernel."""
    kind = draw(st.sampled_from(("poly", "poly", "const", "zero")))
    if kind == "zero":
        return Poly.zero(nvars)
    if kind == "const":
        return Poly.const(nvars, Fraction(draw(st.integers(-6, 6)) or 1,
                                          draw(st.integers(1, 5))))
    return draw(rational_polys(nvars))


@st.composite
def dot_pairs(draw):
    """1 to 4 pairs of polynomials in 1 or 2 variables, zero and constants
    included; some pairs may be followed by their negation, which cancels."""
    n = draw(st.integers(1, 2))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        p, q = draw(kernel_polys(n)), draw(kernel_polys(n))
        pairs.append((p, q))
        if draw(st.booleans()):
            pairs.append((-p, q) if draw(st.booleans()) else (q, -p))
    return draw(st.permutations(pairs))


@given(dot_pairs())
@settings(max_examples=120, deadline=2000)
def test_poly_dot_matches_sum_of_products(pairs):
    expect = Poly.zero(pairs[0][0].nvars)
    for p, q in pairs:
        expect = expect + p * q
    got = poly_dot(pairs)
    assert got == expect
    assert got.den > 0 and gcd(got.den, *got.ints.values()) == 1
    assert all(got.ints.values())


@given(st.integers(1, 2).flatmap(kernel_polys), st.integers(-2, 2))
@settings(max_examples=80, deadline=2000)
def test_euler_matches_derivatives(p, s):
    expect = p * s
    for i in range(p.nvars):
        expect = expect + Poly.var(i, p.nvars) * p.derivative(i)
    assert p.euler(s) == expect


@given(st.integers(1, 2).flatmap(kernel_polys))
@settings(max_examples=120, deadline=2000)
def test_key_views_match_sympy(p):
    # every view that decodes monomial keys, against sympy's QQ ring
    n = p.nvars
    f = _to_ring(p)
    R = _RINGS[n]
    monoms = f.monoms()
    assert Poly(n, p.terms) == p
    assert p.total_degree() == max(map(sum, monoms), default=-1)
    assert p.min_degree() == min(map(sum, monoms), default=-1)
    ordered = f.terms(order=grlex)
    if ordered:
        e, c = ordered[0]
        assert p.leading_term() == (e, Fraction(int(c.numerator),
                                                int(c.denominator)))
    parts = {}
    for e, c in f.terms():
        parts[sum(e)] = parts.get(sum(e), R.zero) + R({e: c})
    assert p.homogeneous_parts() == {d: _from_ring(g, n)
                                     for d, g in sorted(parts.items())}
    assert list(p.homogeneous_parts()) == sorted(parts)
    for i in range(n):
        assert p.derivative(i) == _from_ring(f.diff(R.gens[i]), n)
    if monoms:
        lowest = tuple(min(e[i] for e in monoms) for i in range(n))
        assert divexact(p, Poly(n, {lowest: 1})) == _from_ring(
            f.exquo(R({lowest: QQ(1)})), n)
    # printing lists the terms in sympy's graded-lex order
    words = [Poly(n, {e: Fraction(int(c.numerator), int(c.denominator))})
             .to_string() for e, c in ordered]
    expected = words[0] if words else "0"
    for w in words[1:]:
        expected += " - " + w[1:] if w.startswith("-") else " + " + w
    assert p.to_string() == expected


@pytest.mark.parametrize("nv", [1, 2])
@pytest.mark.parametrize("coeff", [Fraction(1), Fraction(-5, 3),
                                   Fraction(7, 2)])
def test_monomial_power_matches_repeated_product(nv, coeff):
    # a single term's power is one term: the key times n, the coefficient
    # and the denominator to the n
    for exps in ((0, 0), (3, 0), (1, 2)):
        p = Poly(nv, {exps[:nv]: coeff})
        want = Poly.const(nv, 1)
        for n in range(6):
            assert p ** n == want, (exps, n)
            want = want * p


def test_degree_cap_at_its_boundary():
    # a monomial key holds total degree 2^_W - 1; only single monomials are
    # built, so every check costs nothing
    top = 2 ** algebra._W - 1
    for nv in (1, 2):
        for i in range(nv):
            v = Poly.var(i, nv)
            e = tuple(top if j == i else 0 for j in range(nv))
            p = v ** top
            assert p == Poly(nv, {e: 1})
            assert p.terms == {e: 1} and p.leading_term() == (e, 1)
            assert p.total_degree() == p.min_degree() == top
            with pytest.raises(CapExceeded):
                v ** (top + 1)
            with pytest.raises(CapExceeded):
                p * v
            with pytest.raises(CapExceeded):
                Poly(nv, {tuple(a + (j == i) for j, a in enumerate(e)): 1})
    # -x*y to the n has total degree 2n: the largest n that fits, and the next
    n = top // 2
    assert ((-X * Y) ** n).terms == {(n, n): -1}
    with pytest.raises(CapExceeded):
        (-X * Y) ** (n + 1)
    # a monomial of total degree at the cap decodes, differentiates and
    # divides by a monomial
    a = top - 5
    m = Poly(2, {(a, 5): 1})
    assert m.terms == {(a, 5): 1}
    assert m.derivative(0) == Poly(2, {(a - 1, 5): a})
    assert m.derivative(1) == Poly(2, {(a, 4): 5})
    assert divexact(m, Poly(2, {(a, 2): 1})) == Poly(2, {(0, 3): 1})
    # a substitution makes total degree deg P * max deg of the arguments
    with pytest.raises(CapExceeded):
        (X ** 2 ** 31).eval_hom([X, Y], X * Y)
    from projflow.odesolve import CapExceeded as ode_cap
    assert ode_cap is CapExceeded and issubclass(CapExceeded, AlgebraError)


def test_constructor_rejects_malformed_exponents():
    with pytest.raises(AlgebraError):
        Poly(2, {(-1, 1): 1})
    with pytest.raises(AlgebraError):
        Poly(2, {(1,): 1})
    # a polynomial is in x, y or in x alone, whichever constructor builds it
    for build in (lambda: Poly(3, {(1, 0, 0): 1}), lambda: Poly.var(0, 3),
                  lambda: Poly.const(3, 1), lambda: Poly.zero(3)):
        with pytest.raises(AlgebraError):
            build()


@st.composite
def substitutions(draw):
    """(P, args, denom): P, its two arguments and denom in x, y."""
    P = draw(kernel_polys(2))
    args = [draw(kernel_polys(2)) for _ in range(2)]
    return P, args, draw(kernel_polys(2))


@given(kernel_polys(2), kernel_polys(2), kernel_polys(2), st.integers(1, 3))
@settings(max_examples=80, deadline=2000)
def test_reciprocal_matches_swapped_reduction(a, b, g, n):
    # a reduced pair with rational content, either sign, constants and a
    # cancelled common factor g; its gcd-free reciprocal and its powers
    # equal the reduced swap structurally
    if b.is_zero() or g.is_zero():
        return
    r = RatFn(a * g, b * g)
    if r.is_zero():
        with pytest.raises(ZeroDivisionError):
            r.reciprocal()
        return
    swapped = RatFn(r.den, r.num)
    inv = r.reciprocal()
    assert (inv.num, inv.den) == (swapped.num, swapped.den)
    assert inv.den.den == 1 and inv.den.leading_coeff() > 0
    assert r ** -n == swapped ** n


@given(substitutions())
@settings(max_examples=80, deadline=2000)
def test_eval_hom_and_subs_polys_match_sympy(sub):
    P, args, denom = sub
    R = _RINGS[denom.nvars]
    A = [_to_ring(a) for a in args]
    C = _to_ring(denom)
    d = P.total_degree()
    hom = R.zero
    plain = R.zero
    for e, c in P.terms.items():
        t = R(QQ(c.numerator, c.denominator))
        for a, k in zip(A, e):
            if k:  # sympy refuses 0**0
                t *= a ** k
        plain += t
        hom += t * C ** (d - sum(e)) if d > sum(e) else t
    got = P.eval_hom(args, denom)
    assert got == _from_ring(hom, denom.nvars)
    assert P.subs_polys(args) == _from_ring(plain, denom.nvars)
    assert all(type(v) is Fraction for v in got.terms.values())


# a sparse exponent near 2^20, far beyond any gap a loop could walk
_HUGE = (2 ** 20, 2 ** 20 - 1, 2 ** 19 + 3)


@st.composite
def eval_cases(draw):
    """(point, p, q): a point of rationals in 1 or 2 variables and zero,
    constant or sparse polynomials p and q, for p and p/q.

    Huge exponents go only on integer coordinates, and only into p: at a
    non-integer coordinate, or in a quotient of two huge values, the exact
    value has a numerator and denominator of millions of bits, and the
    reference and the kernel both spend seconds in one big-int gcd."""
    n = draw(st.integers(1, 2))
    point = tuple(draw(st.sampled_from((0, 1, -1, 2, -3)))
                  if draw(st.booleans())
                  else Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 6)))
                  for _ in range(n))

    def exponent(i, huge):
        kind = draw(st.sampled_from(("small", "small", "medium", "huge")))
        if kind == "huge" and huge and Fraction(point[i]).denominator == 1:
            return draw(st.sampled_from(_HUGE))
        if kind == "small":
            return draw(st.integers(0, 4))
        return draw(st.integers(0, 200))

    def poly(huge):
        kind = draw(st.sampled_from(("sparse", "sparse", "const", "zero")))
        if kind == "zero":
            return Poly.zero(n)
        if kind == "const":
            return Poly.const(n, Fraction(draw(st.integers(-6, 6)),
                                          draw(st.integers(1, 5))))
        return Poly(n, {tuple(exponent(i, huge) for i in range(n)):
                        Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
                        for _ in range(draw(st.integers(1, 4)))})

    return point, poly(True), poly(False)


@given(eval_cases())
@settings(max_examples=150, deadline=None)
def test_eval_matches_fraction_loop(case):
    point, p, q = case
    got = p.eval(point)
    assert type(got) is Fraction and got == eval_reference.poly_eval(p, point)
    if q.is_zero():
        return
    f = RatFn(p, q, reduce=False)
    try:
        want = eval_reference.ratfn_eval(f, point)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.eval(point)
    else:
        assert f.eval(point) == want


def test_ratfn_eval_raises_at_a_pole():
    f = RatFn(X * X + 1, (2 * X - Y) * (X + 3))
    for point in ((Fraction(1, 2), 1), (-3, Fraction(5, 7)), (0, 0)):
        with pytest.raises(ZeroDivisionError):
            f.eval(point)
    assert f.eval((1, 1)) == Fraction(2, 4)


@pytest.mark.parametrize("nv", [1, 2])
def test_eval_checks_its_point(nv):
    # a point has nvars coordinates, each an int or a Fraction: lengths
    # nvars - 1 and nvars + 1 raise, and so do a float and a str in either
    # place, for a zero polynomial too
    x = Poly.var(0, nv)
    good = (3, Fraction(1, 2))[:nv]
    p = x * x + 1
    f = RatFn(Poly.const(nv, 1), x - 1)
    assert p.eval(good) == 10 and f.eval(good) == Fraction(1, 2)
    for g in (p, Poly.zero(nv), f):
        for point in (good[:-1], good + (5,)):
            with pytest.raises(AlgebraError, match="^wrong number of "
                               "coordinates in the point$"):
                g.eval(point)
        for bad in (0.5, "1"):
            for i in range(nv):
                point = good[:i] + (bad,) + good[i + 1:]
                with pytest.raises(TypeError, match="^expected int or "
                                   "Fraction, got "):
                    g.eval(point)


def test_horner_raises_arguments_to_gaps_by_squaring(monkeypatch):
    # x^(2^20) is one group with a trailing gap of 2^20: squaring takes 20
    # products and one more multiplies the accumulator
    big = X ** 2 ** 20
    calls = []
    mul = algebra._mul_ints

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(algebra, "_mul_ints", counting)
    assert big.subs_polys([X, Y]) == big
    assert len(calls) <= 2 * 20 + 2


@st.composite
def gcd_pairs(draw):
    """(p, q) in 1 or 2 variables, homogeneous or not, sharing a factor and
    carrying monomial and rational content; one side may be constant or
    zero."""
    n = draw(st.integers(1, 2))
    hom = draw(st.booleans())

    def part():
        p = draw(rational_polys(n))
        if hom and not p.is_zero():
            d = p.total_degree()
            p = Poly(n, {e[:-1] + (e[-1] + d - sum(e),): c
                         for e, c in p.terms.items()})
        return p

    def content():
        mono = tuple(draw(st.integers(0, 2)) for _ in range(n))
        scale = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        return Poly(n, {mono: scale})

    g = part()
    p = g * part() * content()
    kind = draw(st.sampled_from(("poly", "poly", "const", "zero")))
    if kind == "poly":
        q = g * part() * content()
    elif kind == "const":
        q = Poly.const(n, Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 5))))
    else:
        q = Poly.zero(n)
    return (p, q) if draw(st.booleans()) else (q, p)


def _ring_gcd(p, q):
    return _from_ring(_to_ring(p).gcd(_to_ring(q)), p.nvars).unit_normal()


@given(gcd_pairs())
@settings(max_examples=150, deadline=2000)
def test_poly_gcd_matches_sympy(pair):
    p, q = pair
    expected = _ring_gcd(p, q)
    g = poly_gcd(p, q)
    assert g == expected
    assert all(type(v) is Fraction for v in g.terms.values())


def test_poly_gcd_hard_pair():
    # a pair in x, y, z on which a recursive primitive PRS ran past 30 s,
    # with z = x + y + 1: a pair in x, y, not of forms, so it takes _heu_gcd
    x, y, z = X, Y, X + Y + 1
    F = Fraction
    a = 2 * x ** 3 * y ** 2 * z - F(1, 2) * x ** 2 * z ** 2 - F(5, 3) * y * z ** 2 \
        - 4 * x * y ** 3 * z ** 3
    b = -7 * x * y ** 3 + 2 * x ** 2 * y ** 3 * z ** 2 - F(3, 4) * x ** 3 * y ** 2 * z \
        + x ** 3 * z ** 3
    g = x ** 3 * z ** 2 + F(3, 2) * y ** 2 * z + 9 * x ** 2 * y ** 2 * z
    assert poly_gcd(a * g, b * g) == g.unit_normal()


_x = Poly.var(0, 1)
F = Fraction

# (p, q, expected gcd, whether the pair takes ``_form_gcd`` on its own lists
# rather than on its images at y = xi in ``_heu_gcd``)
_GCD_ROUTE_CASES = [
    # forms made of monomials: only the powers of x and y are shared
    (Y ** 3, X * Y ** 2, Y ** 2, True),
    (X ** 3, X ** 2 * Y, X ** 2, True),
    (X ** 2 * Y ** 5, 7 * X ** 4 * Y ** 3, X ** 2 * Y ** 3, True),
    # forms whose dehomogenization is a constant
    (2 * Y ** 4, -Y ** 2, Y ** 2, True),
    (F(3, 4) * Y ** 2, X * Y + Y ** 2, Y, True),
    # negative leading coefficients and rational content
    (-F(3, 2) * (X - 2 * Y) * (X + 3 * Y) * (2 * X + Y) * Y,
     -F(5, 7) * (X - 2 * Y) * (X + 3 * Y) ** 2 * Y ** 3,
     (X - 2 * Y) * (X + 3 * Y) * Y, True),
    (-6 * (3 * X ** 2 - 2 * X * Y + 5 * Y ** 2) * X,
     F(-4, 9) * (3 * X ** 2 - 2 * X * Y + 5 * Y ** 2) * (X - Y),
     3 * X ** 2 - 2 * X * Y + 5 * Y ** 2, True),
    # one form and one non-homogeneous polynomial: the images at y = xi
    ((X + Y) * (X - Y), (X + Y) * (X + 1), X + Y, False),
    (-Y ** 2 * (2 * X - Y), Y * (2 * X - Y) * (X * Y + 3),
     Y * (2 * X - Y), False),
    # one variable, with a zero constant term
    (_x ** 2 * (2 * _x - 3), -F(4, 3) * _x * (2 * _x - 3) * (_x + 1),
     _x * (2 * _x - 3), True),
    (-_x ** 3 + 2 * _x, F(1, 2) * _x ** 2, _x, True),
]


def _recording(monkeypatch, name):
    """Calls to ``algebra.<name>``, recorded into the returned list."""
    calls, fn = [], getattr(algebra, name)

    def recording(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(algebra, name, recording)
    return calls


@pytest.mark.parametrize("p, q, expected, form", _GCD_ROUTE_CASES)
def test_poly_gcd_route_and_normal_form(monkeypatch, p, q, expected, form):
    ring_gcd = _ring_gcd(p, q)
    assert ring_gcd == expected.unit_normal()
    form_calls = _recording(monkeypatch, "_form_gcd")
    heu_calls = _recording(monkeypatch, "_heu_gcd")
    assert poly_gcd(p, q) == ring_gcd
    assert poly_gcd(q, p) == ring_gcd
    assert form_calls
    assert bool(heu_calls) != form


def _planted_pair(nvars, seed):
    """(a * g, b * g, g) for g a seeded dense polynomial of degree 102 times
    x * y^2 (x alone in one variable), and a, b coprime products of three
    linear factors each, with rational content; a also carries one more y,
    so the two powers of y differ."""
    rng = random.Random(seed)
    if nvars == 1:
        x, y, planted = _x, Poly.const(1, 1), _x
    else:
        x, y, planted = X, Y, X * Y ** 2
    g = sum((rng.randint(-3, 3) * x ** i * y ** (102 - i) for i in range(102)),
            rng.choice((-2, -1, 1, 2)) * x ** 102)
    g = g * planted
    roots = rng.sample(range(-9, 10), 6)
    a = F(-3, 5) * y * (x - roots[0] * y) * (x - roots[1] * y) * (x - roots[2] * y)
    b = F(7, 2) * (x - roots[3] * y) * (x - roots[4] * y) * (x - roots[5] * y)
    return a * g, b * g, g


@pytest.mark.parametrize("nvars", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_poly_gcd_planted_factor_of_high_degree(nvars, seed):
    p, q, g = _planted_pair(nvars, seed)
    assert p.total_degree() >= 100 and q.total_degree() >= 100
    assert poly_gcd(p, q) == g.unit_normal()
    assert poly_gcd(q, p) == g.unit_normal()


@st.composite
def known_factor_cases(draw):
    """(polys, factors): a pair or a triple over one denominator, each a
    cofactor times planted powers 0-2 of 1-3 known factors, constants
    among them; a factor planted with power 0 somewhere does not divide."""
    n = draw(st.integers(1, 2))
    factors = [draw(kernel_polys(n).filter(lambda p: not p.is_zero()))
               for _ in range(draw(st.integers(1, 3)))]
    polys = [draw(kernel_polys(n)) for _ in range(draw(st.integers(1, 2)))]
    polys.append(draw(rational_polys(n).filter(lambda p: not p.is_zero())))
    for i, p in enumerate(polys):
        for g in factors:
            p = p * g ** draw(st.integers(0, 2))
        polys[i] = p
    return polys, factors


@given(known_factor_cases())
@settings(max_examples=80, deadline=None)
def test_divide_known_then_reduce_equals_reduce(case):
    # dividing out known factors changes no reduced value, and leaves each
    # nonconstant factor dividing at most some of the results
    polys, factors = case
    out = algebra._divide_known(polys, factors)
    assert [RatFn(p, out[-1]) for p in out[:-1]] == [
        RatFn(p, polys[-1]) for p in polys[:-1]]
    for g in factors:
        assert g.is_constant() or not all(
            algebra._quotient(p, g) is not None for p in out)


# -- gcd in two variables on images at y = xi ---------------------------------

# (p, q, their gcd); no pair is a pair of forms
_XY_GCD_CASES = [
    # constant in x
    (Y, Y + 1, 1),
    (3 * Y ** 2 - 3, F(1, 2) * Y ** 2 + Y + F(1, 2), Y + 1),
    (Y ** 3, X * Y ** 2 + Y, Y),
    # the first point is 2 * 1 + 29, q having max norm 1, and p vanishes there
    ((Y - 31) * (X + Y + 1), (X + Y + 1) * (X - Y), X + Y + 1),
    ((Y - 31) * (Y + 1) * X, (Y + 1) * (X - 1), Y + 1),
    # there the image of p loses its top power of x: [31, 962, 31]
    (((Y - 31) * X * X + X + Y) * (X * Y + 1), (X * Y + 1) * (X - Y),
     X * Y + 1),
    # negative leading coefficients and rational content
    (-F(3, 2) * (X * Y - 2) * (X + Y + 3), F(-5, 7) * (X * Y - 2) * (Y * Y - X),
     X * Y - 2),
    (F(-2, 9) * (X * X - 3 * Y + 7) ** 2 * X, F(4, 3) * (X * X - 3 * Y + 7) * Y,
     X * X - 3 * Y + 7),
    # shared powers of x and of y
    (X ** 2 * Y * (X + 1), X * Y ** 3 * (Y + 2), X * Y),
]


@pytest.mark.parametrize("p, q, expected", _XY_GCD_CASES)
def test_xy_gcd_matches_ring_gcd(monkeypatch, p, q, expected):
    want = _ring_gcd(p, q)
    assert want == Poly.const(2, 1) * expected
    heu_calls = _recording(monkeypatch, "_heu_gcd")
    assert poly_gcd(p, q) == want
    assert poly_gcd(q, p) == want
    assert len(heu_calls) == 2


def test_xy_gcd_skips_a_point_where_an_image_vanishes():
    p, q = (Y - 31) * (X + Y + 1), (X + Y + 1) * (X - Y)
    assert next(algebra._heu_points(1)) == 31
    assert algebra._image_at(p, 31) == []
    assert algebra._image_at(((Y - 31) * X * X + X + Y) * (X * Y + 1),
                             31) == [31, 962, 31]
    assert algebra._heu_gcd(p, q) == X + Y + 1


@pytest.mark.parametrize("seed", [0, 1])
def test_xy_gcd_planted_factor_of_high_degree(seed):
    # the planted pairs are forms; a common factor x y + 1 and a cofactor
    # 1 - y make them pairs in two variables of degree about 108
    p, q, g = _planted_pair(2, seed)
    h = X * Y + 1
    p, q, g = p * h * (1 - Y), q * h, g * h
    assert poly_gcd(p, q) == g.unit_normal() == _ring_gcd(p, q)
    assert algebra._heu_gcd(p, q) == g.unit_normal()


def test_xy_gcd_runs_past_eight_wrong_image_gcds(monkeypatch):
    # the first 8 image gcds are x + 1, which divides neither input; the
    # points go on until one gives the gcd
    form_gcd, wrong = algebra._form_gcd, []

    def first_eight_wrong(f, g):
        if len(wrong) < 8:
            wrong.append(1)
            return [1, 1]
        return form_gcd(f, g)

    monkeypatch.setattr(algebra, "_form_gcd", first_eight_wrong)
    images = _recording(monkeypatch, "_image_at")
    p = F(3, 2) * (X * Y - 2) * (X + Y + 3)
    q = -(X * Y - 2) * (Y * Y - X)
    assert poly_gcd(p, q) == X * Y - 2
    assert len(wrong) == 8 and len({xi for _, xi in images}) == 9


@st.composite
def binary_forms(draw):
    """y^k times rational linear factors with multiplicity, times quadratics
    x^2 - c y^2 whose roots are irrational (c > 0 not a square) or complex,
    and at times the cubic x^3 - 3 x y^2 + y^3 with three irrational real
    roots."""
    p = Y ** draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(-5, 5)), draw(st.integers(1, 4))
        p = p * (b * X - a * Y) ** draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.sampled_from((2, 3, 5, -1, -3)))
        p = p * (X * X - c * Y * Y) ** draw(st.integers(1, 2))
    if draw(st.booleans()):
        p = p * (X ** 3 - 3 * X * Y * Y + Y ** 3) ** draw(st.integers(1, 2))
    return p * Fraction(draw(st.integers(1, 7)), draw(st.integers(1, 7)))


@given(binary_forms())
@settings(max_examples=60, deadline=2000)
def test_count_real_projective_roots_matches_sympy(p):
    import sympy

    x = sympy.Symbol("x")
    k = min(e[1] for e in p.terms)
    dehom = sum(sympy.Rational(c.numerator, c.denominator) * x ** e[0]
                for e, c in p.terms.items())
    n = count_real_projective_roots(p)
    assert type(n) is int
    assert n == k + len(sympy.real_roots(sympy.Poly(dehom, x)))


def test_eval_hom_raises_the_denominator_by_squaring(monkeypatch):
    # the constant term of x^(2^18) + 1 takes C^(2^18): squaring from the
    # cached powers takes 19 products, and x^(2^18) takes 19 more
    p = X ** 2 ** 18 + 1
    calls = []
    mul = algebra._mul_ints

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(algebra, "_mul_ints", counting)
    assert p.subs_polys([X, Y]) == p
    assert len(calls) <= 2 * 18 + 4


def test_linear_substitution_work_grows_like_the_cube_of_the_degree(monkeypatch):
    # a Horner fold per homogeneous part does O(D^3) term products for a
    # dense polynomial of degree D under a linear map; folding all degrees
    # together does O(D^4), and doubling D then costs more than 13 times
    L = LinearMap2(2, -1, 1, 3).coord_polys()
    products = []
    mul = algebra._mul_ints

    def counting(a, b):
        a, b = list(a), list(b)
        products.append(len(a) * len(b))
        return mul(a, b)

    monkeypatch.setattr(algebra, "_mul_ints", counting)
    work = {}
    for D in (20, 40):
        p = Poly(2, {(a, b): (3 * a - 2 * b) % 7 - 3 or 1
                     for a in range(D + 1) for b in range(D + 1 - a)})
        products.clear()
        p.subs_polys(L)
        work[D] = sum(products)
    assert work[40] <= 10 * work[20]


# -- binary forms as integer lists -------------------------------------------

def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


@st.composite
def form_list_pairs(draw):
    """Two nonzero form lists (c[a] the coefficient of x^a y^(k - a)) with a
    planted common factor, each with its own content, powers of x and of y,
    and negative and zero coefficients; any of the parts may be constant."""
    coeffs = st.lists(st.integers(-5, 5), min_size=1, max_size=5).filter(
        lambda c: c[-1] and c[0])
    common = draw(coeffs)

    def side():
        c = _convolve(common, draw(coeffs))
        c = [draw(st.integers(1, 6)) * v for v in c]
        return [0] * draw(st.integers(0, 3)) + c + [0] * draw(st.integers(0, 3))

    return side(), side()


def _dup_form_gcd(f, g):
    """gcd of two form lists by sympy's dup_gcd of their dehomogenizations,
    primitive with a positive leading entry, times the common power of y."""
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_gcd

    def strip(c):
        k = len(c)
        while not c[k - 1]:
            k -= 1
        return c[:k], len(c) - k

    (f, j), (g, l) = strip(f), strip(g)
    h = dup_gcd(f[::-1], g[::-1], ZZ)[::-1]
    c = gcd(*h)
    return [int(v) // c for v in h] + [0] * min(j, l)


@given(form_list_pairs())
@settings(max_examples=200, deadline=2000)
def test_form_gcd_matches_dup_gcd(pair):
    f, g = pair
    assert algebra._form_gcd(f, g) == _dup_form_gcd(f, g)
    assert algebra._form_gcd(g, f) == _dup_form_gcd(f, g)


def test_form_gcd_runs_past_eight_failed_points(monkeypatch):
    # an evaluation of 0 makes a point fail; the points go on until one
    # gives the gcd
    eval_at, points = algebra._eval_at, []

    def first_eight_fail(c, xi):
        if xi not in points:
            points.append(xi)
        return 0 if points.index(xi) < 8 else eval_at(c, xi)

    monkeypatch.setattr(algebra, "_eval_at", first_eight_fail)
    common = [3, -1, 0, 2]
    f = [0] + _convolve(common, [1, 4, -2]) + [0, 0]
    g = _convolve(common, [-5, 0, 7]) + [0]
    assert algebra._form_gcd(f, g) == [3, -1, 0, 2, 0]
    assert len(points) == 9


@given(st.integers(0, 40), st.dictionaries(st.integers(0, 40),
                                           st.integers(-9, 9).filter(bool),
                                           max_size=12),
       st.integers(1, 6), st.integers(-7, 7), st.integers(-7, 7))
@settings(max_examples=200, deadline=2000)
def test_form_value_matches_eval(k, coeffs, den, a, b):
    # forms of degree k with up to 12 terms: the sparse ones take the pass
    # over the terms, the dense ones the pass over the list
    p = Poly(2, {(i, k - i): Fraction(c, den) for i, c in coeffs.items()
                 if i <= k})
    v, deg = algebra._form_value(p, a, b)
    assert deg == (k if p.ints else -1)
    assert v == p.eval((a, b)) * p.den


@st.composite
def small_forms(draw):
    """x^i y^j times a form with integer coefficients, squared in part."""
    core = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5).filter(
        lambda c: c[-1]))
    p = sum((c * X ** a * Y ** (len(core) - 1 - a) for a, c in enumerate(core)),
            Poly.zero(2))
    if draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
        p = p * (b * X - a * Y) ** 2
    return p * X ** draw(st.integers(0, 2)) * Y ** draw(st.integers(1, 3))


@given(small_forms())
@settings(max_examples=100, deadline=2000)
def test_count_real_projective_roots_matches_count_roots(p):
    # with multiplicity: a root of multiplicity m is a root of f, f', ...,
    # f^(m-1), so it is counted m times over the gcds of f with its
    # successive derivatives; the power of y counts the direction y = 0
    import sympy

    x = sympy.Symbol("x")
    k = min(e[1] for e in p.terms)
    f = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x ** e[0]
                       for e, c in p.terms.items()), x)
    want, g, h = k, f, f
    while g.degree() > 0:
        want += g.count_roots()
        h = h.diff(x)
        g = g.gcd(h)
    assert count_real_projective_roots(p) == want


def _sturm_cases(seed):
    """Seeded square-free lists of degree 1 to 12: random ones with
    coefficients up to 10^6 and products of distinct linear factors with
    a random quadratic."""
    rng = random.Random(seed)
    out = []
    while len(out) < 150:
        if rng.random() < 0.5:
            f = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(2, 13))]
        else:
            f = [rng.randint(-9, 9), rng.randint(-9, 9), rng.choice((-3, 1, 2))]
            for r in rng.sample(range(-20, 21), rng.randint(0, 10)):
                f = _convolve(f, [-r, rng.choice((-2, 1, 3))])
        if f[-1] and algebra._form_gcd(f, algebra._ldiff(f)) == [1]:
            out.append(f)
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_sturm_count_matches_dup_count_real_roots(seed):
    from sympy.polys.domains import ZZ
    from sympy.polys.rootisolation import dup_count_real_roots

    cubics = [[1, -3, 0, 1], [-1, 3, 0, -1], [7, -7, 0, 1], [1, -4, 0, 1],
              [-1, 0, 5, -1]]
    for f in cubics + _sturm_cases(seed):
        assert algebra._sturm_count(f) == dup_count_real_roots(f[::-1], ZZ)
    for f in cubics:
        assert algebra._sturm_count(f) == 3
    assert count_real_projective_roots(X ** 3 - 3 * X * Y * Y + Y ** 3) == 3
    assert count_real_projective_roots(
        Y * (X ** 3 - 3 * X * Y * Y + Y ** 3) ** 2 * (X * X + Y * Y)) == 7


# -- factorization over Q on integer lists ------------------------------------

def _dup_factor_list(f):
    """sympy's irreducible factors of the integer list f over ZZ, as lists
    low to high, in sympy's order."""
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    return [([int(v) for v in reversed(g)], m)
            for g, m in dup_factor_list(f[::-1], ZZ)[1]]


def _power_product(factors):
    f = [1]
    for g, m in factors:
        for _ in range(m):
            f = _convolve(f, g)
    return f


@st.composite
def factor_products(draw):
    """Integer lists with a content and a power of x, times powers of linear
    factors b x - a (some with a and b of about 100 bits), of irreducible
    quadratics and quartics (x^4 + 1 and x^4 - 10 x^2 + 1 have roots modulo
    many primes but no rational root) and of small random factors."""
    big = st.integers(-2 ** 100, 2 ** 100).filter(bool)
    kinds = {
        "linear": st.tuples(st.integers(-20, 20), st.integers(1, 12)).map(
            lambda ab: [-ab[0], ab[1]]),
        "big": st.tuples(big, big).map(lambda ab: [-ab[0], abs(ab[1])]),
        "quadratic": st.sampled_from(([-2, 0, 1], [3, 0, 1], [1, 1, 1],
                                      [-5, 0, 7])),
        "quartic": st.sampled_from(([1, 0, 0, 0, 1], [1, 0, -10, 0, 1])),
        "random": st.lists(st.integers(-5, 5), min_size=2, max_size=5).filter(
            lambda c: c[-1]),
    }
    factors = [([0, 1], draw(st.integers(0, 3))),
               ([draw(st.sampled_from((1, -1, 6, -35)))], 1)]
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.sampled_from(sorted(kinds)).flatmap(kinds.get))
        factors.append((g, draw(st.integers(1, 3 if len(g) == 2 else 2))))
    return _power_product(factors)


@given(factor_products())
@settings(max_examples=150, deadline=None)
def test_factor_list_q_matches_dup_factor_list(f):
    assert sorted(algebra.factor_list_q(f)) == sorted(_dup_factor_list(f))


@given(factor_products())
@settings(max_examples=100, deadline=None)
def test_sqf_list_matches_dup_sqf_list(f):
    from sympy.polys.domains import ZZ
    from sympy.polys.sqfreetools import dup_sqf_list

    want = [([int(v) for v in reversed(g)], m)
            for g, m in dup_sqf_list(f[::-1], ZZ)[1]]
    assert algebra._sqf_list(f) == want


@pytest.mark.parametrize("factors", [
    [([1, 0, 0, 0, 1], 1)],                    # roots mod p, none rational
    [([-2, 0, 1], 1), ([-3, 0, 1], 1)],        # splits 2 + 2 over Q
    [([-1, 1], 1), ([-4, 1], 1)],              # a double root mod 3
    [([-1, 1], 1), ([-4, 1], 1), ([-7, 1], 1)],  # multiple roots mod 2, 3
    [([-1, 6], 2), ([5, 6], 1), ([-7, 1], 1)],  # 2 and 3 divide lc
    [([-89, 97], 1), ([1, 1, 1], 1)],          # |a| = |f(0)|, b = lc
    [([89, 97], 1), ([-1, 0, 0, 1], 1)],       # a/b at the bound, a < 0
    [([-(2 ** 100 + 277), 3 ** 63], 2), ([2 ** 99 - 1, 5 ** 43], 1),
     ([1, 0, 1], 1)],                           # about 200-bit coefficients
    [([0, 1], 3), ([-3, 2], 3), ([2, 0, 0, 1], 2)],
])
def test_factor_list_q_special_cases(factors):
    f = _power_product(factors)
    assert sorted(algebra.factor_list_q(f)) == sorted(_dup_factor_list(f))


def test_rational_roots_skip_primes_with_multiple_roots():
    # (x - 1)(x - 4)(x - 7) has a double root modulo 2 and a triple one
    # modulo 3, so its roots are lifted from modulo 5
    f = _power_product([([-1, 1], 1), ([-4, 1], 1), ([-7, 1], 1)])
    assert sorted(algebra._rational_roots(f)) == [(1, 1), (4, 1), (7, 1)]
    f = _power_product([([-(2 ** 100 + 277), 3 ** 63], 1), ([1, 0, 1], 1)])
    assert algebra._rational_roots(f) == [(2 ** 100 + 277, 3 ** 63)]
