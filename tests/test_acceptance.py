"""End-to-end acceptance checks for the full pipeline; all exact unless a
numeric tolerance is stated explicitly."""
import math
import random
import time
from fractions import Fraction

import pytest

from projflow import (
    Flow,
    HomBir,
    IdenticallySingular,
    LinearMap2,
    NonRationalGenus1,
    Poly,
    PseudoLog,
    RatFn,
    RationalFlow,
    VectorField,
    canonical_flow,
    canonicalize,
    check_boundary,
    classify_involution,
    conjugate_flow,
    diagonal_series,
    dual,
    expand_flow,
    expand_from_vf,
    is_i0_symmetric,
    kapa,
    level_of,
    lookup,
    orbit_invariant,
    phat_map,
    quadratic_classify,
    solve_differ,
    symmetric_family,
    uniN,
    vector_field,
    verify_pde,
    verify_translation,
    zeros_poles,
    zoo,
)
from projflow.odesolve import homogenize_0

from compose_reference import verify_compose

X = Poly.var(0, 2)
Y = Poly.var(1, 2)
SWAP = LinearMap2(0, 1, 1, 0)
JROT = LinearMap2(0, 1, -1, 0)


def _rf(n, d=None):
    return RatFn(n) if d is None else RatFn(n, d)


# -- 1. catalogue reproduction ---------------------------------------------

def test_criterion_1_catalogue():
    start = time.monotonic()
    for entry in zoo():
        vf = vector_field(entry.flow)
        assert (vf.w, vf.r) == (entry.vf.w, entry.vf.r), entry.name
        assert orbit_invariant(vf, entry.level) == entry.orbit_W, entry.name
        lvl = level_of(vf)
        assert lvl.tag == "Level" and lvl.n == entry.level, entry.name
        assert zeros_poles(vf) == (entry.zeros, entry.poles), entry.name
        if entry.level >= 1:
            assert entry.coords is not None, entry.name
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "catalogue reproduction took %.1fs" % elapsed


def test_criterion_1_coordinates():
    for entry in zoo():
        res = canonicalize(entry.flow)
        if entry.level >= 1:
            assert res.coords == entry.coords, entry.name


# -- 2. translation equation -----------------------------------------------

def test_criterion_2_translation():
    for entry in zoo():
        assert verify_translation(entry.flow), entry.name
    rng = random.Random(20260826)
    triples = [(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
               for _ in range(10)]
    for N in (1, 2, 3, 5):
        for sigma, tau, kappa in triples:
            assert verify_translation(uniN(N, sigma, tau)), (N, sigma, tau)
            assert verify_translation(kapa(N, kappa)), (N, kappa)
    bad = Flow(_rf(X, (X + 1) ** 2), _rf(Y, Y + 1))
    assert not verify_translation(bad)


# -- 3. canonicalization ---------------------------------------------------

def test_criterion_3_canonicalization():
    start = time.monotonic()
    names = ("phi0_1", "phi0_2", "phi0_3", "phi1_1",
             "phi2_1", "phi2_2", "phi2_3", "Phi_2", "Psi")
    for name in names:
        f = lookup(name).flow
        res = canonicalize(f)
        assert isinstance(res, RationalFlow), name
        assert conjugate_flow(f, res.ell) == canonical_flow(res.level), name
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "canonicalization took %.1fs" % elapsed


# -- 4. PDE equivalence ----------------------------------------------------

def _mutants():
    return [
        Flow(_rf(X * (Y + 1) + Y * Y), _rf(Y, Y + 1)),
        Flow(_rf(X * (Y + 1)), _rf(Y, (Y + 1) ** 2)),
        Flow(_rf(X, X + Y + 1), _rf(Y, X + Y + 2)),
        Flow(_rf(X * (Y + 2)), _rf(Y, Y + 1)),
        Flow(_rf(X, (X + 1) ** 2), _rf(Y, Y + 1)),
    ]


def test_criterion_4_pde_equivalence():
    # verify_translation decides boundary-satisfying maps by verify_pde, so
    # three-variable composition (the reference in tests/compose_reference)
    # is the independent side of the comparison
    for entry in zoo():
        assert verify_pde(entry.flow) is True, entry.name
        assert verify_compose(entry.flow) is True, entry.name
    for i, f in enumerate(_mutants()):
        assert verify_translation(f) is False, i
        assert verify_pde(f) is False, i
        assert verify_compose(f) is False, i


def _perturbed(f, rng):
    """f with one coefficient of one of its nonzero polynomials moved by 1."""
    parts = [f.u.num, f.u.den, f.v.num, f.v.den]
    k = rng.choice([i for i, p in enumerate(parts) if not p.is_zero()])
    mono = rng.choice(sorted(parts[k].terms))
    step = rng.choice((1, -1))
    moved = parts[k] + Poly(2, {mono: Fraction(step)})
    if moved.is_zero():
        moved = parts[k] - Poly(2, {mono: Fraction(step)})
    parts[k] = moved
    return Flow(_rf(parts[0], parts[1]), _rf(parts[2], parts[3]))


def _small_conjugates(rng, count):
    """Conjugates of phi_N, N in {1, -1, 2}, by degree-1 maps (P, Q; L).

    Composition costs about ten times more per degree of the map, so only
    conjugates of degree at most 3 are kept.
    """
    out = []
    while len(out) < count:
        P, Q = (rng.randint(-2, 2) * X + rng.randint(-2, 2) * Y
                for _ in range(2))
        a, b, c, d = (rng.randint(-1, 1) for _ in range(4))
        if P.is_zero() or Q.is_zero() or a * d == b * c:
            continue
        g = conjugate_flow(canonical_flow(rng.choice((1, -1, 2))),
                           HomBir(P, Q, LinearMap2(a, b, c, d)))
        if max(p.total_degree() for p in (g.u.num, g.u.den, g.v.num,
                                          g.v.den)) <= 3:
            out.append(g)
    return out


def _form(rng, deg):
    """A nonzero binary form of degree deg with coefficients in [-2, 2]."""
    while True:
        p = sum((rng.randint(-2, 2) * X ** i * Y ** (deg - i)
                 for i in range(deg + 1)), Poly.zero(2))
        if not p.is_zero():
            return p


def _degenerate(rng, deg):
    """A degenerate solution A R/(cR+1), B R/(cR+1) with R = n/d
    1-homogenic, d of degree deg, normalized so that R(A, B) = 1."""
    while True:
        A, B = rng.choice([(0, 1), (1, 0)] + [
            (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2))
            for _ in range(3)])
        n, d = _form(rng, deg + 1), _form(rng, deg)
        rn, rd = n.eval((A, B)), d.eval((A, B))
        if rn != 0 and rd != 0:
            break
    R = _rf(n * (rd / rn), d)
    den = R * rng.randint(-2, 2) + 1
    return Flow(R * A / den, R * B / den)


def test_criterion_4_routes_agree():
    rng = random.Random(20121004)
    flows = _small_conjugates(rng, 6)
    for N in (2, 3):
        for _ in range(3):
            sigma, tau, kappa = (Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                 for _ in range(3))
            if sigma * tau != N:
                flows.append(uniN(N, sigma, tau))
            flows.append(kapa(N, kappa))
    cases = [(f, True) for f in flows]
    cases += [(_perturbed(f, rng), None) for f in flows for _ in range(4)]
    cases += [(_degenerate(rng, deg), True) for deg in (0, 1, 1, 2)]
    seen = set()
    for f, expected in cases:
        verdict = verify_translation(f)
        assert verdict == verify_compose(f), f
        if expected is not None:
            assert verdict is expected, f
        seen.add((check_boundary(f), verdict))
    # both routes ran, each accepted and rejected maps
    assert {(True, True), (True, False), (False, True), (False, False)} <= seen


def _outcome(check, f):
    try:
        return check(f)
    except IdenticallySingular:
        return IdenticallySingular


def _singular_on_a_line(rng):
    """A map into one line through 0 whose denominator vanishes on it."""
    den = _form(rng, 1) + rng.randint(0, 2)
    if rng.random() < 0.3:  # into the line x = 0
        v = _rf(_form(rng, 2), X * den)
        return Flow(v * 0, v)
    k = rng.randint(-2, 2)  # into the line y = kx
    u = _rf(_form(rng, 2), (Y - k * X) * den)
    return Flow(u, u * k)


def test_criterion_4_non_boundary_maps_match_composition():
    # verify_translation decides a map that fails the boundary condition by
    # its degenerate form; composition decides it independently
    rng = random.Random(20121005)
    flows = [_degenerate(rng, deg) for deg in (0, 1, 2) for _ in range(4)]
    assert all(verify_translation(f) is True for f in flows)
    maps = list(flows)
    maps += [_perturbed(f, rng) for f in flows for _ in range(2)]
    maps += [Flow(f.u, _rf(2 * Y)) for f in flows if not f.u.is_zero()]
    maps += [_singular_on_a_line(rng) for _ in range(6)]
    maps += _mutants()
    seen = set()
    for f in maps:
        if check_boundary(f):
            continue
        verdict = _outcome(verify_translation, f)
        assert verdict == _outcome(verify_compose, f), f
        seen.add(verdict)
    assert seen == {True, False, IdenticallySingular}


# -- 5. series consistency -------------------------------------------------

def test_criterion_5_series_consistency():
    for entry in zoo():
        assert expand_flow(entry.flow, 8) == expand_from_vf(
            vector_field(entry.flow), 8), entry.name


def test_criterion_5_numeric_exponential():
    jets = expand_from_vf(VectorField(X * Y, Poly.zero(2)), 8)
    pts = [(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
           (Fraction(-2), Fraction(1, 5)), (Fraction(3, 4), Fraction(-1, 2)),
           (Fraction(1, 7), Fraction(2))]
    z = Fraction(1, 100)
    for x0, y0 in pts:
        series = sum(jets.u_parts[i].eval((x0, y0)) * z ** i
                     for i in range(8))
        closed = float(x0) * math.exp(float(y0 * z))
        assert abs(float(series) - closed) < 1e-12


def test_criterion_5_numeric_tangent():
    jets = expand_from_vf(VectorField(X * X + Y * Y, Poly.zero(2)), 8)
    pts = [(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
           (Fraction(-2), Fraction(1, 5)), (Fraction(3, 4), Fraction(-1, 2)),
           (Fraction(1, 7), Fraction(2))]
    z = Fraction(1, 100)
    for x0, y0 in pts:
        series = sum(jets.u_parts[i].eval((x0, y0)) * z ** i
                     for i in range(8))
        t = math.tan(float(y0 * z))
        closed = float(y0) * (float(x0) + float(y0) * t) / (float(y0)
                                                            - float(x0) * t)
        assert abs(float(series) - closed) < 1e-12


# -- 6. non-rationality detections -----------------------------------------

def test_criterion_6_genus1():
    cases = [
        ((X * X - 2 * X * Y, -2 * X * Y + Y * Y), _rf(X * Y * (X - Y))),
        ((X * X - 3 * X * Y, -3 * X * Y + Y * Y),
         _rf(X * Y * (X - Y) ** 2)),
        ((X * X - X * Y, -2 * X * Y + Y * Y),
         _rf(X ** 4 * Y * Y - Fraction(2, 3) * X ** 3 * Y ** 3)),
    ]
    for (w, r), W in cases:
        res = quadratic_classify(w, r)
        assert isinstance(res, NonRationalGenus1)
        assert res.orbit_W == W


def test_criterion_6_diagonal_coefficients():
    jets = expand_from_vf(VectorField(X * X - 2 * X * Y,
                                      -2 * X * Y + Y * Y), 9)
    coeffs = diagonal_series(jets, (Fraction(1), Fraction(-1)))
    assert coeffs == [Fraction(c) for c in
                      (1, 3, 3, 3, 6, 9, 12, Fraction(117, 7),
                       Fraction(171, 7))]


def test_criterion_6_pseudolog():
    res = quadratic_classify(-X * X - X * Y, -(Y * Y))
    assert isinstance(res, PseudoLog) or (
        isinstance(res, dict)
        and isinstance(res.get("classification"), PseudoLog))


# -- 7. group theory -------------------------------------------------------

def test_criterion_7_group_laws():
    a = HomBir(X + Y, X - 2 * Y, LinearMap2(1, 1, 0, 1))
    b = HomBir(2 * X, Y, SWAP)
    c = HomBir(X, X + Y)
    e = HomBir.identity()
    assert a.compose(e) == a and e.compose(a) == a
    assert a.compose(a.inverse()).is_identity()
    assert a.compose(b).compose(c) == a.compose(b.compose(c))
    # composition law agrees with pointwise composition of coordinate maps
    p = (RatFn.const(Fraction(1), 2), RatFn.const(Fraction(1, 3), 2))
    assert a.compose(b).apply(p) == a.apply(b.apply(p))


def test_criterion_7_involution_examples():
    i_plus = HomBir(X, Y, SWAP)
    assert classify_involution(i_plus).tag == "IPlusPlus"
    i_minus = HomBir(-X, Y - X, LinearMap2(1, -1, 2, -1))
    assert classify_involution(i_minus).tag == "IMinusPlus"


def _hom_poly(rng, deg):
    while True:
        terms = {}
        for i in range(deg + 1):
            c = rng.randint(-3, 3)
            if c:
                terms[(i, deg - i)] = Fraction(c)
        if terms:
            return Poly(2, terms)


@pytest.mark.parametrize("cls,L,eps,degs", [
    ("IPlusPlus", SWAP, 1, (1, 2, 3)),
    ("IPlusMinus", SWAP, -1, (1, 2, 3)),
    ("IMinusPlus", JROT, 1, (1, 3, 5)),
    ("IMinusMinus", JROT, -1, (1, 3, 5)),
])
def test_criterion_7_generated_involutions(cls, L, eps, degs):
    rng = random.Random(hash(cls) & 0xFFFF)
    produced = 0
    lx, ly = L.coord_polys()
    while produced < 20:
        P = _hom_poly(rng, degs[produced % len(degs)])
        Q = P.subs_polys([lx, ly]) * eps
        if Q.is_zero():
            continue
        inv = HomBir(P, Q, L)
        if not inv.compose(inv).is_identity():
            continue
        got = classify_involution(inv).tag
        assert got in ("IPlusPlus", "IPlusMinus", "IMinusPlus",
                       "IMinusMinus")
        # the intended class unless P collapses to a lower-symmetry form
        if got == cls:
            produced += 1
    assert produced == 20


def test_criterion_7_involution_conjugates_levels():
    i = HomBir.involution_i()
    for N in range(-5, 6):
        assert conjugate_flow(canonical_flow(N), i) == canonical_flow(-N)


# -- 8. level-1 special structure ------------------------------------------

def test_criterion_8_sphere_family():
    vf = VectorField((X - Y) ** 2, (X - Y) ** 2)
    sol = solve_differ(vf)
    A1 = homogenize_0(sol["particular"])
    A0 = homogenize_0(sol["homogeneous_basis"])
    base = _rf(Y * Y, (X - Y) ** 2)
    hom = _rf(Y, X - Y)
    # family is base + sigma * hom in some affine parametrization
    d = A1 - base
    if not d.is_zero():
        r = d / hom
        assert r.num.is_constant() and r.den.is_constant()
    r0 = A0 / hom
    assert r0.num.is_constant() and r0.den.is_constant()
    f = lookup("phi_sph_inf").flow
    for sigma in (Fraction(0), Fraction(1), Fraction(-2)):
        A = base + hom * sigma
        ell = HomBir.from_A(A)
        g = conjugate_flow(f, ell)
        s = sigma
        num = (Y * Y) * (1 - s) + s * X * Y + X
        den = (Y + 1) * (Y * (1 - s) + s * X + 1)
        assert g == Flow(_rf(num, den), _rf(Y, Y + 1)), sigma


def test_criterion_8_phat_table():
    for entry in zoo():
        if entry.level == 1:
            assert phat_map(entry.flow) == entry.coords, entry.name


# -- 9. duality ------------------------------------------------------------

def test_criterion_9_dual_canonical():
    for N in (2, 3, 4):
        assert dual(canonical_flow(N)) == Flow(
            _rf(X, X + 1), _rf(Y, (X + 1) ** (N + 1)))


def test_criterion_9_dual_involution():
    for entry in zoo():
        if entry.level == 2:
            assert dual(dual(entry.flow)) == entry.flow, entry.name


# -- 10. symmetric flows ---------------------------------------------------

def test_criterion_10_basic_symmetric():
    basics = [symmetric_family(1, "Phi"), symmetric_family(1, "PhiPrime"),
              symmetric_family(1, "phi_tor_1"), symmetric_family(1, "Psi")]
    for f in basics:
        assert is_i0_symmetric(f)
        assert verify_translation(f)
    for N in (1, 2, 3, 4, -1, -2, -3, -4):
        f = symmetric_family(N, "Phi")
        assert is_i0_symmetric(f), N
        assert verify_translation(f), N


def test_criterion_10_symmetric_conjugates():
    f = symmetric_family(2, "Phi")
    rng = random.Random(42)
    done = 0
    while done < 5:
        a = Fraction(rng.randint(1, 4))
        b = Fraction(rng.randint(-3, 3))
        # symmetric 0-homogenic radial multiplier
        num = a * (X * X + Y * Y) + b * X * Y
        den = (X + Y) ** 2
        A = _rf(num, den)
        if A.is_zero():
            continue
        ell = HomBir.from_A(A)
        g = conjugate_flow(f, ell)
        assert is_i0_symmetric(g)
        done += 1
