import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apply_reference import apply_reference
from invariant_reference import transported_invariant_reference
from push_forward_reference import push_forward_reference
from projflow import algebra, birmap
from projflow.classify import _transported_invariant
from projflow import (
    HomBir,
    IdenticallySingular,
    LinearMap2,
    Poly,
    RatFn,
    canonical_flow,
    VectorField,
    canonicalize,
    classify_involution,
    conjugate_flow,
    conjugate_vf,
    conjugate_vf_linear,
    conjugate_vf_radial,
    vector_field,
    verify_translation,
)

X = Poly.var(0, 2)
Y = Poly.var(1, 2)
SWAP = LinearMap2(0, 1, 1, 0)
JROT = LinearMap2(0, 1, -1, 0)  # L^2 = -id


def _rand_poly(rng, deg):
    while True:
        terms = {}
        for i in range(deg + 1):
            c = rng.randint(-3, 3)
            if c:
                terms[(i, deg - i)] = Fraction(c)
        if terms:
            return Poly(2, terms)


def _rand_hombir(rng, deg=2):
    while True:
        P = _rand_poly(rng, deg)
        Q = _rand_poly(rng, deg)
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if a * d - b * c != 0 and not (P * Q).is_zero():
            return HomBir(P, Q, LinearMap2(a, b, c, d))


def test_group_identity_and_inverse():
    rng = random.Random(7)
    e = HomBir.identity()
    for _ in range(15):
        a = _rand_hombir(rng)
        assert a.compose(e) == a
        assert e.compose(a) == a
        assert a.compose(a.inverse()).is_identity()
        assert a.inverse().compose(a).is_identity()


def test_group_associativity():
    rng = random.Random(11)
    for _ in range(8):
        a, b, c = (_rand_hombir(rng, 1) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_pointwise_soundness():
    rng = random.Random(3)
    pts = [(Fraction(1), Fraction(2)), (Fraction(-2), Fraction(3)),
           (Fraction(1, 2), Fraction(-1, 3))]
    for _ in range(10):
        a = _rand_hombir(rng, 1)
        b = _rand_hombir(rng, 1)
        ab = a.compose(b)
        for x0, y0 in pts:
            p = (RatFn.const(x0, 2), RatFn.const(y0, 2))
            try:
                expect = a.apply(b.apply(p))
                got = ab.apply(p)
            except (ZeroDivisionError, IdenticallySingular):
                continue
            assert got == expect


def _rand_dense(rng, deg):
    """A polynomial of total degree ``deg`` with Fraction coefficients on
    every degree up to it, not homogeneous."""
    terms = {(i, s - i): Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
             for s in range(deg + 1) for i in range(s + 1)}
    terms[(deg, 0)] = Fraction(rng.choice((-2, -1, 1, 2)))
    return Poly(2, terms)


def test_pullback_pair_matches_subs():
    # r o a by the radial pullback equals the bivariate substitution of a's
    # coordinates, for maps of degree 0-3 with identity, swap and random L
    rng = random.Random(11)
    for deg in range(4):
        for L in (LinearMap2.identity(), SWAP, LinearMap2(2, -1, 1, 3)):
            a = HomBir(_rand_poly(rng, deg), _rand_poly(rng, deg), L)
            for dn, dd in ((3, 1), (1, 4), (0, 2), (None, 2)):
                num = Poly.zero(2) if dn is None else _rand_dense(rng, dn)
                r = RatFn(num, _rand_dense(rng, dd))
                N, D = a.pullback_pair(r)
                assert RatFn(N, D) == r.subs(list(a.coords())), (a, r)
                assert N.is_zero() == (dn is None)


def test_apply_matches_reference():
    # one radial step reduced once equals m * (P/Q)(m) with m = L(pair) in
    # RatFn arithmetic, for maps of degree 0-3 with identity, swap and random
    # L, on pairs with equal, distinct, partly shared and constant
    # denominators, bare polynomials and points; where the reference raises,
    # apply raises too
    rng = random.Random(29)
    singular = 0
    for deg in range(4):
        for L in (LinearMap2.identity(), SWAP, LinearMap2(2, -1, 1, 3)):
            a = HomBir(_rand_poly(rng, deg), _rand_poly(rng, deg), L)
            d = _rand_dense(rng, 2)
            pairs = [
                (RatFn(_rand_dense(rng, 3), d), RatFn(_rand_dense(rng, 1), d)),
                (RatFn(_rand_dense(rng, 1), _rand_dense(rng, 2)),
                 RatFn(_rand_dense(rng, 2), _rand_dense(rng, 1))),
                (RatFn(_rand_dense(rng, 2), d * _rand_dense(rng, 1)),
                 RatFn(_rand_dense(rng, 1), d)),
                (_rand_dense(rng, 2), RatFn(X, _rand_dense(rng, 1))),
                (RatFn.var(0, 2), RatFn.var(1, 2)),
                (RatFn.const(0, 2), RatFn.const(0, 2)),
            ]
            pairs += [(RatFn.const(Fraction(rng.randint(-2, 2)), 2),
                       RatFn.const(Fraction(rng.randint(-2, 2), 3), 2))
                      for _ in range(4)]
            for pair in pairs:
                try:
                    expect = apply_reference(a, pair)
                except IdenticallySingular:
                    singular += 1
                    with pytest.raises(IdenticallySingular):
                        a.apply(pair)
                    continue
                assert a.apply(pair) == expect, (a, pair)
    assert singular > 0
    # x/y is undefined on the line y = 0
    a = HomBir.from_A(RatFn(X, Y))
    for route in (a.apply, lambda pair: apply_reference(a, pair)):
        with pytest.raises(IdenticallySingular):
            route((RatFn.const(1, 2), RatFn.const(0, 2)))


def test_push_forward_phi_matches_composition():
    # the closed form of a o phi_N o a^-1 equals a's coordinates at phi_N at
    # a^-1's, composed by RatFn.subs (the outer one unreduced, by subs_pair,
    # and compared cross-multiplied), for maps with identity, swap and a
    # general L: N in -3..3 at degrees 0 and 1, N in -2..2 at degree 2 and,
    # for the general L only, at degree 3; and N in -2..2 on maps of
    # degree 2 with l_y planted in P or l_x^2 in Q
    rng = random.Random(17)
    Ls = (LinearMap2.identity(), SWAP, LinearMap2(2, -1, 1, 3))
    cases = [(HomBir(_rand_poly(rng, deg), _rand_poly(rng, deg), L),
              range(-3, 4) if deg < 2 else range(-2, 3))
             for deg in range(3) for L in Ls]
    cases.append((HomBir(_rand_poly(rng, 3), _rand_poly(rng, 3), Ls[2]),
                  range(-2, 3)))
    # random forms almost never carry the factors l_x, l_y of
    # (l_x, l_y) = L^-1(x) that push_forward_phi cancels: plant them
    for L in Ls:
        lx, ly = L.inverse().coord_polys()
        cases += [(HomBir(ly * _rand_poly(rng, 1), _rand_poly(rng, 2), L),
                   range(-2, 3)),
                  (HomBir(_rand_poly(rng, 2), lx * lx, L), range(-2, 3))]
    for a, levels in cases:
        bx, by = a.inverse().coords()
        for N in levels:
            t = canonical_flow(N)
            inner = [t.u.subs([bx, by]), t.v.subs([bx, by])]
            N1, N2, D = a.push_forward_phi(N)
            for Ni, c in zip((N1, N2), a.coords()):
                n, d = c.subs_pair(inner)
                assert Ni * d == D * n and not D.is_zero(), (a, N)


def test_conjugate_flow_back_from_degree_3_conjugate():
    # a degree-3 conjugate of phi_2 conjugated by its own conjugator gives
    # phi_2 back; its pullback pair has degree 112 before P o L and Q o L
    # are divided out
    h = HomBir(-X ** 3 + 2 * X * X * Y - X * Y * Y + Y ** 3,
               2 * X ** 3 + 3 * X * X * Y + 2 * X * Y * Y + 3 * Y ** 3,
               LinearMap2(-2, -1, -2, 0))
    f = conjugate_flow(canonical_flow(2), h)
    assert conjugate_flow(f, canonicalize(f).ell) == canonical_flow(2)


def test_forward_conjugation_divides_out_known_factors(monkeypatch):
    # a^-1 applied to the pullback divides its triple (N1, N2, D) by the
    # pair's denominator and the map's Q and P before it reduces, so no
    # gcd sees the full unreduced pair
    triples, gcds = [], []
    divide, gcd = birmap._divide_known, algebra.poly_gcd

    def recording_divide(polys, factors):
        out = divide(polys, factors)
        if len(polys) == 3:
            triples.append((polys, out))
        return out

    def recording_gcd(p, q):
        gcds.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(birmap, "_divide_known", recording_divide)
    monkeypatch.setattr(algebra, "poly_gcd", recording_gcd)
    rng = random.Random(13)
    for deg, N in ((2, 2), (2, -2), (3, -1), (3, 2)):
        h = _rand_hombir(rng, deg)
        triples.clear()
        gcds.clear()
        conjugate_flow(canonical_flow(N), h)
        ((*_, D), out), = triples
        assert out[-1].total_degree() < D.total_degree(), (deg, N)
        assert not any(D in args for args in gcds), (deg, N)


def test_involution_i_plus_example():
    a = HomBir(X, Y, SWAP)
    u, v = a.coords()
    assert u == RatFn(Y * Y, X)
    assert v == RatFn(Y)
    assert classify_involution(a).tag == "IPlusPlus"


def test_involution_i_minus_example():
    L = LinearMap2(1, -1, 2, -1)   # L^2 = -id
    a = HomBir(-X, Y - X, L)
    u, v = a.coords()
    assert u == RatFn(-((X - Y) ** 2), X)
    assert v == RatFn((X - Y) * (Y - 2 * X), X)
    assert classify_involution(a).tag == "IMinusPlus"


def test_involution_i0():
    a = HomBir.linear(SWAP)
    assert classify_involution(a).tag == "IPlusPlus"


@pytest.mark.parametrize("tag,L,sign,degs", [
    ("IPlusPlus", SWAP, 1, (1, 2, 3)),
    ("IPlusMinus", SWAP, -1, (1, 2, 3)),
    ("IMinusPlus", JROT, 1, (1, 3)),
    ("IMinusMinus", JROT, -1, (1, 3)),
])
def test_generated_involutions(tag, L, sign, degs):
    rng = random.Random(hash(tag) & 0xFFFF)
    produced = 0
    lx, ly = L.coord_polys()
    while produced < 20:
        P = _rand_poly(rng, degs[produced % len(degs)])
        Q = P.subs_polys([lx, ly]) * sign
        if Q.is_zero():
            continue
        a = HomBir(P, Q, L)
        if not a.compose(a).is_identity():
            continue
        got = classify_involution(a).tag
        # degenerate P (e.g. symmetric under L) may collapse the class
        if got != tag:
            assert got in ("IPlusPlus", "IPlusMinus",
                           "IMinusPlus", "IMinusMinus")
            continue
        produced += 1
    assert produced == 20


def test_involution_i_conjugates_canonical_flows():
    i = HomBir.involution_i()
    assert classify_involution(i).tag == "IPlusPlus"
    for N in range(-5, 6):
        f = canonical_flow(N)
        assert conjugate_flow(f, i) == canonical_flow(-N), N


def _conjugator_pool():
    return [
        HomBir.linear(LinearMap2(1, 1, 0, 1)),
        HomBir.linear(LinearMap2(2, -1, 1, 1)),
        HomBir.from_A(RatFn(X, Y)),
        HomBir.from_A(RatFn(Y, X + Y)),
        HomBir.involution_i(),
    ]


def test_conjugate_flow_is_group_action():
    f = canonical_flow(2)
    pool = _conjugator_pool()
    pairs = [(pool[0], pool[2]), (pool[1], pool[4]), (pool[3], pool[0]),
             (pool[4], pool[1])]
    for a, b in pairs:
        lhs = conjugate_flow(conjugate_flow(f, a), b)
        rhs = conjugate_flow(f, a.compose(b))
        assert lhs == rhs


def test_conjugation_preserves_translation_equation():
    f = canonical_flow(2)
    pool = _conjugator_pool()
    for a in (pool[0], pool[1], pool[4]):
        g = conjugate_flow(f, a)
        assert verify_translation(g)


def test_vf_conjugation_consistent_with_flow_conjugation():
    f = canonical_flow(3)
    vf = vector_field(f)
    pool = _conjugator_pool()
    for a in (pool[0], pool[1], pool[4]):
        g = conjugate_flow(f, a)
        assert vector_field(g) == conjugate_vf(vf, a)


def test_radial_and_linear_pieces():
    A = RatFn(X, Y)
    f = canonical_flow(2)
    vf = vector_field(f)
    ra = HomBir.from_A(A)
    assert conjugate_vf(vf, ra) == conjugate_vf_radial(vf, A)
    li = HomBir.linear(LinearMap2(1, 2, 0, 1))
    assert conjugate_vf(vf, li) == conjugate_vf_linear(
        vf, LinearMap2(1, 2, 0, 1))


def test_scalar_constants_are_coerced():
    half = Fraction(1, 2)
    h = HomBir(half, 1)
    assert h == HomBir(1, 2) == HomBir.linear(LinearMap2(half, 0, 0, half))
    x, y = h.coords()
    assert (x, y) == (RatFn(X * half), RatFn(Y * half))


_ENTRY = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def _invertible(m):
    # M + t id is singular for at most two t
    a, b, c, d = m
    t = next(t for t in (0, 1, 2, 3) if (a + t) * (d + t) != b * c)
    return LinearMap2(a + t, b, c, d + t)


_MAPS = st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY).map(_invertible)


def _drawn_form(draw, k):
    """A nonzero form of degree k with coefficients in -3..3."""
    cs = draw(st.lists(st.integers(-3, 3), min_size=k + 1, max_size=k + 1))
    f = sum((cf * X ** i * Y ** (k - i) for i, cf in enumerate(cs) if cf),
            Poly.zero(2))
    return Y ** k if f.is_zero() else f


@st.composite
def planted_hombirs(draw):
    """A normalized HomBir of degree 0-3 with a Fraction L; from degree 1,
    l_y = det(L) L^{-1}(x)_y may be planted in P and l_x in Q, so that
    composing with the involution cancels either or both."""
    L = draw(_MAPS)
    a, b, c, d = L.a, L.b, L.c, L.d
    deg = draw(st.integers(0, 3))

    def form(k):
        return _drawn_form(draw, k)
    if deg == 0:
        P, Q = form(0), form(0)
    else:
        lx, ly = X * d - Y * b, Y * a - X * c
        P = form(deg - 1) * (ly if draw(st.booleans()) else form(1))
        Q = form(deg - 1) * (lx if draw(st.booleans()) else form(1))
    return HomBir(P, Q, L)


@st.composite
def factor_planted_hombirs(draw):
    """A HomBir of degree 0-3 with L the identity, the swap or a Fraction
    map, whose P or Q is l_x^i l_y^j times a form, (l_x, l_y) = L^-1(x)."""
    L = draw(st.sampled_from((LinearMap2.identity(), SWAP)) | _MAPS)
    deg = draw(st.integers(0, 3))
    i = draw(st.integers(0, deg))
    j = draw(st.integers(0, deg - i))
    lx, ly = L.inverse().coord_polys()
    P = _drawn_form(draw, deg - i - j) * lx ** i * ly ** j
    Q = _drawn_form(draw, deg)
    return HomBir(*((Q, P) if draw(st.booleans()) else (P, Q)), L)


@given(factor_planted_hombirs(), st.integers(-4, 4))
@settings(max_examples=40, deadline=None)
def test_push_forward_phi_matches_reference(ell, N):
    # push_forward_phi cancels the known factors l_x, l_y, P0 and T0 as
    # exponents; tests/push_forward_reference multiplies every factor out.
    # The two triples are compared cross-multiplied
    N1, N2, D = ell.push_forward_phi(N)
    R1, R2, RD = push_forward_reference(ell, N)
    assert not D.is_zero()
    assert N1 * RD == R1 * D and N2 * RD == R2 * D


@given(factor_planted_hombirs(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_transported_invariant_matches_reference(ell, N):
    # x y^(N-1) carried by ell^-1 from the signed exponents of ell's linear
    # split, against tests/invariant_reference, which multiplies l_x
    # l_y^(N-1) Q^N and P^N out and divides l_x, l_y back out; the field is
    # that of ell o phi_N o ell^-1, so the orbit check passes too
    vf = conjugate_vf(VectorField((N - 1) * X * Y, -Y * Y), ell.inverse())
    W = _transported_invariant(vf, N, ell)
    want = transported_invariant_reference(ell, N)
    assert (W.num, W.den) == (want.num, want.den)


@given(planted_hombirs(), _ENTRY, _ENTRY.map(lambda p: p or 1), _MAPS)
@settings(max_examples=150, deadline=None)
def test_closed_form_moves_match_compose(ell, b, p, M0):
    # each move of the canonical chain of classify updates the triple in
    # closed form, (P, Q; L M) or birmap._compose_involution, and keeps P
    # and Q coprime; the general compose (gcd and normalization) is the
    # reference, and the triple is unique, so the two are structurally equal
    for M in (LinearMap2(1, b, 0, 1), LinearMap2(1, 0, 0, 1),
              LinearMap2(p, 0, 0, 1), M0):
        assert (HomBir._coprime(ell.P, ell.Q, ell.L.compose(M))
                == ell.compose(HomBir.linear(M)))
    assert _involution_move(ell) == ell.compose(HomBir.involution_i())


def _involution_move(ell):
    return HomBir._coprime(*birmap._compose_involution(ell.P, ell.Q, ell.L))


@pytest.mark.parametrize("plant_y, plant_x, change", [
    (False, False, 1), (True, False, 0), (False, True, 0), (True, True, -1)])
def test_involution_move_cancels_planted_forms(plant_y, plant_x, change):
    # ell o i = (P l_x, Q l_y; L swap) loses l_y when it divides P and l_x
    # when it divides Q
    L = LinearMap2(2, 1, -1, 3)
    lx, ly = X * 3 - Y, Y * 2 + X
    P = (X + Y) * (ly if plant_y else X - Y)
    Q = (X - 2 * Y) * (lx if plant_x else X)
    ell = HomBir(P, Q, L)
    moved = _involution_move(ell)
    assert moved.degree() == ell.degree() + change
    assert moved == ell.compose(HomBir.involution_i())
