import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from projflow import (
    AlgebraError,
    Flow,
    HomBir,
    LevelResult,
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
    canonicalize,
    conjugate_flow,
    conjugate_vf_linear,
    conjugate_vf_radial,
    expand_flow,
    kapa,
    lookup,
    poly_gcd,
    symmetric_family,
    uniN,
    zoo,
)
from projflow import algebra, birmap, classify, flowcore
from projflow.flowcore import (_coord_jets, _flow_jets, _jet_field,
                               _linear_form_pair, exact_isqrt)

import jets_reference
from pde_reference import jacobian_field, pde_second_order
from test_acceptance import _degenerate, _mutants, _perturbed

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


def test_pde_matches_second_order_reference():
    # verify_pde checks the first-order PDE on the jet field; the
    # second-order system (tests/pde_reference) decides boundary maps
    # independently.  Unreduced copies of the flows take the
    # cross-multiplied branch: d need not divide X d_x + Y d_y there.
    rng = random.Random(12)
    g = X + 3 * Y + 5
    # the lowest denominator parts x and y of its jets divide neither way
    maps = [Flow(RatFn(X * X, X + Y * Y), RatFn(Y * Y, Y + X * X))]
    for f in _seeded_conjugates(rng):
        unreduced = Flow(*(RatFn(c.num * g, c.den * g, reduce=False)
                           for c in (f.u, f.v)))
        maps += [f, unreduced] + [_perturbed(f, rng) for _ in range(3)]
    seen = set()
    for m in maps:
        if check_boundary(m):
            verdict = verify_pde(m)
            assert verdict is pde_second_order(m), m
            seen.add(verdict)
            # the field they read is the second jet on each branch
            jets = expand_flow(m, 2)
            assert vector_field(m) == VectorField(jets.u_parts[1],
                                                  jets.v_parts[1]), m
    assert seen == {True, False}


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
        assert vector_field(f) == jacobian_field(f), f


def test_one_boundary_pass_per_map(monkeypatch):
    # the jet recurrence decides the boundary condition, so canonicalize and
    # verify_translation split each coordinate into homogeneous parts once
    entries = zoo()
    calls = []
    split = Poly.homogeneous_parts
    monkeypatch.setattr(Poly, "homogeneous_parts",
                        lambda self: calls.append(self) or split(self))
    for e in entries:
        for check in (canonicalize, verify_translation):
            calls.clear()
            check(e.flow)
            assert len(calls) == 4, (e.name, check.__name__, len(calls))

    def no_division(*args):
        raise AssertionError("the first jet needs no division")
    monkeypatch.setattr(flowcore, "divexact", no_division)
    monkeypatch.setattr(algebra, "divexact", no_division)
    for e in entries:
        for g, lin in ((e.flow.u, X), (e.flow.v, Y)):
            nums, _ = _coord_jets(g, lin, 4)
            assert nums[0] == lin, e.name


def test_pde_is_two_sums_of_products_per_coordinate(monkeypatch):
    # each side of Dphi (x - V) = phi is one poly_dot of three products,
    # with x n_x + y n_y from Euler's identity: no Poly sum is formed
    flows = [e.flow for e in zoo()]
    flows += [f for seed in (2, 7)
              for f in _seeded_conjugates(random.Random(seed))]
    cases = [(f, _jet_field(f)) for f in flows]
    dots = []
    dot = flowcore.poly_dot
    monkeypatch.setattr(flowcore, "poly_dot",
                        lambda pairs: dots.append(1) or dot(pairs))

    def forbidden(self, other):
        raise AssertionError("the PDE check forms no Poly sum")
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Poly, name, forbidden)
    for f, field in cases:
        dots.clear()
        assert flowcore._pde_holds(f, *field), f
        assert len(dots) <= 4, (f, len(dots))


def test_shared_denominator_side_is_formed_once(monkeypatch):
    # B = D d.euler(0) - P d_x - Q d_y and h = B/d depend on d alone, so
    # over a shared denominator the PDE takes three sums of products and one
    # division; the jet field divides nothing when the lowest parts b_m of
    # the two denominators agree
    ladder = [symmetric_family(N) for N in (1, -1, 2, -2, 3, -3, 4, -4)]
    maps = ladder + [e.flow for e in zoo()]
    shared = [f for f in maps if f.u.den == f.v.den]
    lowest = [f for f in maps
              if (jets := _flow_jets(f, 2))[0][1][1] == jets[1][1][1]]
    assert len(shared) == 17 and len(lowest) == 23
    cases = [(f, _jet_field(f)) for f in shared]
    dots, quotients = [], []
    dot, quotient = flowcore.poly_dot, flowcore._quotient
    monkeypatch.setattr(flowcore, "poly_dot",
                        lambda pairs: dots.append(1) or dot(pairs))
    monkeypatch.setattr(flowcore, "_quotient",
                        lambda p, d: quotients.append(1) or quotient(p, d))
    for f, field in cases:
        dots.clear()
        quotients.clear()
        assert flowcore._pde_holds(f, *field), f
        assert (len(dots), len(quotients)) == (3, 1), f
    for f in lowest:
        quotients.clear()
        assert _jet_field(f) is not None and quotients == [], f


def test_jets_take_one_sum_of_products_per_order(monkeypatch):
    # N_k = a_(m+k) b_m^(k-2) - sum_(j<k) N_j E_(k-j) with E_i =
    # b_(m+i) b_m^(i-1) is one poly_dot per order: no Poly sum is formed
    coords = [(g, lin) for e in zoo()
              for g, lin in ((e.flow.u, X), (e.flow.v, Y))]
    orders = (2, 20)
    refs = {K: [jets_reference.coord_jets(g, lin, K) for g, lin in coords]
            for K in orders}
    dots = []
    dot = flowcore.poly_dot
    monkeypatch.setattr(flowcore, "poly_dot",
                        lambda pairs: dots.append(1) or dot(pairs))

    def forbidden(self, other):
        raise AssertionError("the jet recurrence forms no Poly sum")
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Poly, name, forbidden)
    for K in orders:
        for (g, lin), ref in zip(coords, refs[K]):
            dots.clear()
            assert _coord_jets(g, lin, K) == ref, (g, K)
            assert len(dots) == K - 1, (g, K, len(dots))


_qc = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _qform(draw, deg):
    return sum((draw(_qc) * X ** i * Y ** (deg - i) for i in range(deg + 1)),
               Poly.zero(2))


@st.composite
def boundary_coordinates(draw):
    """(g, lin): g = a/b unreduced, with rational coefficients, from
    homogeneous parts.  b_m is a nonzero constant (m = 0) or form of degree
    m = 1 or 2; each b_(m+i), i = 1..3, and each a_(m+k), k = 2..4, may be
    absent.  a_(m+1) is lin b_m, or the other variable times b_m when the
    boundary condition is to fail."""
    m = draw(st.integers(0, 2))
    lin, other = draw(st.sampled_from(((X, Y), (Y, X))))
    bm = _qform(draw, m)
    if bm.is_zero():
        bm = X ** m
    b, a = bm, (other if draw(st.integers(0, 5)) == 0 else lin) * bm
    for i in (1, 2, 3):
        if draw(st.booleans()):
            b = b + _qform(draw, m + i)
        if draw(st.booleans()):
            a = a + _qform(draw, m + i + 1)
    return RatFn(a, b, reduce=False), lin


@given(boundary_coordinates(), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_coord_jets_match_per_term_recurrence(case, K):
    # tests/jets_reference builds each jet numerator term by term
    g, lin = case
    assert _coord_jets(g, lin, K) == jets_reference.coord_jets(g, lin, K)


def test_certificate_evaluates_ell_twice(monkeypatch):
    # the certificate f == ell o phi_N o ell^-1 is a closed form in ell's
    # terms: each call evaluates ell's P and Q at one pair once each, and
    # builds no phi_N, substitutes into no RatFn, splits no homogeneous part
    # and takes no gcd
    flows = [e.flow for e in zoo()]
    flows += [f for seed in (2, 7)
              for f in _seeded_conjugates(random.Random(seed))]
    cases = [(f, canonicalize(f)) for f in flows]  # all RationalFlow
    evaluated = []
    eval_hom = Poly.eval_hom
    monkeypatch.setattr(Poly, "eval_hom", lambda self, *args: (
        evaluated.append(self) or eval_hom(self, *args)))

    def forbidden(*args):
        raise AssertionError("the certificate needs no such step")
    for owner, name in ((RatFn, "subs_pair"), (Poly, "homogeneous_parts"),
                        (algebra, "poly_gcd"), (birmap, "poly_gcd"),
                        (classify, "canonical_flow")):
        monkeypatch.setattr(owner, name, forbidden)
    for f, res in cases:
        evaluated.clear()
        assert classify._conjugates_to(f, res.ell, res.level), f
        assert evaluated == [res.ell.P, res.ell.Q], f


def test_chain_and_radial_map_take_no_gcd(monkeypatch):
    # each move of the canonical chain updates ell's normalized triple in
    # closed form: no gcd, substitution, general compose or normalizing
    # constructor; the radial map of a reduced A takes no gcd either
    seeded = [f for seed in (2, 7)
              for f in _seeded_conjugates(random.Random(seed))]
    flows = [e.flow for e in zoo()] + seeded
    scope, ran, seen = [], [], []

    def watch(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            if scope:
                seen.append((scope[-1], name))
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    for owner, name in ((algebra, "poly_gcd"), (birmap, "poly_gcd"),
                        (Poly, "eval_hom"), (HomBir, "compose"),
                        (HomBir, "__init__")):
        watch(owner, name)

    def enter(step, fn):
        def run(*args):
            ran.append(step)
            scope.append(step)
            try:
                return fn(*args)
            finally:
                scope.pop()
        return run

    monkeypatch.setattr(classify, "_chain_to_canonical",
                        enter("chain", classify._chain_to_canonical))
    monkeypatch.setattr(HomBir, "from_A", classmethod(
        enter("from_A", HomBir.from_A.__func__)))
    for f in flows:
        canonicalize(f)
    assert ran.count("chain") >= len(seeded) and "from_A" in ran
    assert [c for c in seen if c[0] == "chain"] == []
    assert ("from_A", "poly_gcd") not in seen


def _boundary_reference(f):
    """check_boundary by the lowest parts: g(xz, yz) = z^k (p/q) (1 + O(z))
    with homogeneous p and q, and the condition is k = 1, p = x q (y q)."""
    for g, lin in ((f.u, X), (f.v, Y)):
        nparts = g.num.homogeneous_parts()
        if not nparts:
            return False
        dparts = g.den.homogeneous_parts()
        a, b = min(nparts), min(dparts)
        if a - b != 1 or nparts[a] != lin * dparts[b]:
            return False
    return True


def test_boundary_condition_matches_lowest_part_reference():
    rng = random.Random(18)
    flows = [e.flow for e in zoo()]
    maps = flows + [_perturbed(f, rng) for f in flows for _ in range(2)]
    maps += _mutants()
    maps += [_degenerate(rng, deg) for deg in (0, 1, 2)]
    zero = RatFn(Poly.zero(2))
    maps += [
        Flow(RatFn(X + 1), RatFn(Y)),                   # a part below m + 1
        Flow(RatFn(X + X * X, Y + 1), RatFn(Y + Y * X, Poly.const(2, 3))),
        Flow(zero, RatFn(Y)), Flow(RatFn(X), zero), Flow(zero, zero),
        Flow(RatFn(X), RatFn(X)),
        Flow(RatFn(X * X + X * Y * Y, X + X * X), RatFn(Y * X, X + Y * Y)),
    ]
    seen = set()
    for f in maps:
        holds = _boundary_reference(f)
        assert check_boundary(f) is holds, f
        assert (_jet_field(f) is not None) is holds, f
        if holds:
            jets = expand_flow(f, 6)
            assert (jets.u_parts[0], jets.v_parts[0]) == (RatFn(X), RatFn(Y))
        else:
            with pytest.raises(AlgebraError, match="boundary condition"):
                expand_flow(f, 6)
        seen.add(holds)
    assert seen == {True, False}


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


# -- the stored form (P, Q, D) against RatFn arithmetic on (w, r) ----------

_c = st.integers(-2, 2)


def _form(draw, deg):
    return sum((draw(_c) * X ** i * Y ** (deg - i) for i in range(deg + 1)),
               Poly.zero(2))


@st.composite
def planted_fields(draw):
    """(P, Q, D): D a scalar that is not a unit times k = 0, 1 or 2 linear
    forms, P and Q binary forms of degree k + 2, all three times a planted
    common factor G."""
    k = draw(st.integers(0, 2))
    D = Poly.const(2, draw(st.sampled_from(
        (Fraction(-2), Fraction(3, 2), Fraction(-1, 3), Fraction(6)))))
    for _ in range(k):
        a, b = draw(st.tuples(_c, _c).filter(any))
        D = D * (a * X + b * Y)
    G = _form(draw, draw(st.integers(0, 2)))
    if G.is_zero():
        G = X - 2 * Y
    return _form(draw, k + 2) * G, _form(draw, k + 2) * G, D * G


@st.composite
def radial_multipliers(draw):
    """A 0-homogenic A = a/b with forms a, b of degree 1 or 2."""
    m = draw(st.integers(1, 2))
    a, b = _form(draw, m), _form(draw, m)
    return RatFn(a if not a.is_zero() else X ** m, b if not b.is_zero() else Y ** m)


def _level_reference(w, r):
    """``level_of`` in RatFn arithmetic on w and r."""
    x, y = RatFn.var(0, 2), RatFn.var(1, 2)
    if (y * w - x * r).is_zero():
        return LevelResult.level(0)
    Sx = y * w.derivative(0) - x * r.derivative(0)
    Sy = y * w.derivative(1) - x * r.derivative(1)
    if Sx.is_zero() or Sy.is_zero():
        return LevelResult.level(1)
    lf = _linear_form_pair(Sy / Sx)
    if lf is None or lf[0] == lf[3]:
        return LevelResult.indeterminate()
    a, b, c, d = lf
    value = ((a + d) ** 2 - 4 * b * c) / (a - d) ** 2
    n = exact_isqrt(value)
    return LevelResult.level(n) if n else LevelResult.non_integer_square(value)


@given(planted_fields(), radial_multipliers(),
       st.tuples(_c, _c, _c, _c).filter(lambda m: m[0] * m[3] != m[1] * m[2]))
@settings(max_examples=40, deadline=5000)
def test_field_normal_form_and_operations(pqd, A, abcd):
    P, Q, D = pqd
    w, r = RatFn(P, D), RatFn(Q, D)
    vf = VectorField.of(P, Q, D)
    ref = VectorField(w, r)
    assert vf == ref and hash(vf) == hash(ref)
    assert (vf.w, vf.r) == (w, r)
    assert vf.D == vf.D.unit_normal()
    assert poly_gcd(poly_gcd(vf.D, vf.P), vf.Q) == Poly.const(2, 1)
    assert level_of(vf) == _level_reference(w, r)
    # radial conjugation: w2 = A w - A_y s, r2 = A r + A_x s, s = x r - y w
    s = RatFn.var(0, 2) * r - RatFn.var(1, 2) * w
    radial = conjugate_vf_radial(vf, A)
    w2 = A * w - A.derivative(1) * s
    r2 = A * r + A.derivative(0) * s
    assert radial == VectorField(w2, r2)
    assert level_of(radial) == _level_reference(w2, r2)
    # linear conjugation: (w, r) o L, then L^-1
    L = LinearMap2(*abcd)
    lx, ly = (RatFn(p) for p in L.coord_polys())
    wl, rl = w.subs([lx, ly]), r.subs([lx, ly])
    li = L.inverse()
    assert conjugate_vf_linear(vf, L) == VectorField(wl * li.a + rl * li.b,
                                                     wl * li.c + rl * li.d)
