"""Classification of 2-dimensional rational projective flows over Q.

Pipeline: degenerate detection, denominator reduction for vector fields,
the quadratic-form case analysis, the univariate normal form, canonical
conjugators, orbit invariants, the level-N coordinate maps, duality,
symmetric families and a catalogue of named flows.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (
    AlgebraError,
    NeedsRationalRoot,
    Poly,
    RatFn,
    VerificationFailed,
    LinearMap2,
    divexact,
    linear_factors_q,
    poly_gcd,
    poly_lcm,
)
from .flowcore import (
    Flow,
    VectorField,
    LevelResult,
    HyperboloidPoint,
    NotLevel0Form,
    check_boundary,
    level0_J,
    level_of,
    vector_field,
    verify_pde,
)
from .birmap import (
    HomBir,
    conjugate_flow,
    conjugate_vf,
    conjugate_vf_linear,
    conjugate_vf_radial,
)
from .odesolve import (
    NoRationalSolution,
    homogenize_0,
    orbit_ode_reduce,
    rational_solutions,
    solve_differ,
)

X = Poly.var(0, 2)
Y = Poly.var(1, 2)


def _rf(p, q=None):
    if isinstance(p, Poly):
        p = RatFn(p)
    if q is None:
        return p
    if isinstance(q, Poly):
        q = RatFn(q)
    return p / q


class NotDegenerate(AlgebraError):
    pass


# -- verdicts --------------------------------------------------------------

class Verdict:
    kind = None

    def __repr__(self):
        items = ", ".join("%s=%r" % (k, v) for k, v in sorted(
            self.__dict__.items()))
        return "%s(%s)" % (type(self).__name__, items)


class Identity(Verdict):
    kind = "Identity"


class Degenerate(Verdict):
    kind = "Degenerate"

    def __init__(self, R, c, A, B):
        self.R, self.c, self.A, self.B = R, c, A, B


class RationalFlow(Verdict):
    kind = "RationalFlow"

    def __init__(self, level, ell, orbit_W, coords):
        self.level, self.ell, self.orbit_W, self.coords = (
            level, ell, orbit_W, coords)


class NonRationalGenus1(Verdict):
    kind = "NonRationalGenus1"

    def __init__(self, pair, orbit_W, level):
        self.pair, self.orbit_W, self.level = pair, orbit_W, level


class PseudoLog(Verdict):
    kind = "PseudoLog"

    def __init__(self, ell_to_normal_form):
        self.ell_to_normal_form = ell_to_normal_form


class NonIntegerLevel(Verdict):
    kind = "NonIntegerLevel"

    def __init__(self, delta_squared):
        self.delta_squared = delta_squared


class NeedsRationalRootVerdict(Verdict):
    kind = "NeedsRationalRoot"

    def __init__(self, blocking_poly):
        self.blocking_poly = blocking_poly


class NonRational(Verdict):
    """Log/exp/tan-type obstruction (no rational flow has this field)."""

    kind = "NonRational"

    def __init__(self, tag, detail=None):
        self.tag, self.detail = tag, detail


class PHatValue:
    """tau in Q, or None meaning the point at infinity."""

    __slots__ = ("tau",)

    def __init__(self, tau):
        self.tau = tau

    @property
    def is_infinity(self):
        return self.tau is None

    def __eq__(self, other):
        if isinstance(other, PHatValue):
            return self.tau == other.tau
        return NotImplemented

    def __repr__(self):
        return "PHatValue(%s)" % ("oo" if self.tau is None else self.tau)


class QuadVF:
    """w = U x^2 + V x y + W y^2 with r = -y^2 implicit."""

    __slots__ = ("U", "V", "W")

    def __init__(self, U, V, W):
        self.U, self.V, self.W = Fraction(U), Fraction(V), Fraction(W)

    def triple(self):
        return (self.U, self.V, self.W)

    def delta_squared(self):
        return (self.V + 1) ** 2 - 4 * self.U * self.W

    def vector_field(self):
        w = Poly(2, {k: c for k, c in (
            ((2, 0), self.U), ((1, 1), self.V), ((0, 2), self.W)) if c})
        return VectorField(_rf(w), _rf(Poly(2, {(0, 2): Fraction(-1)})))

    def __eq__(self, other):
        if isinstance(other, QuadVF):
            return self.triple() == other.triple()
        return NotImplemented

    def __repr__(self):
        return "QuadVF(%s, %s, %s)" % self.triple()


# -- canonical flows -------------------------------------------------------

def canonical_flow(N):
    """phi_N = x (y+1)^{N-1} . y/(y+1), valid for every integer N."""
    yp1 = Y + 1
    if N >= 1:
        u = _rf(X * yp1 ** (N - 1))
    else:
        u = _rf(X, yp1 ** (1 - N))
    return Flow(u, _rf(Y, yp1))


def _quad_uvw(vf):
    """Read (U, V, W) off a univariate-form vector field, or None."""
    if not vf.r.den.is_constant() or not vf.w.den.is_constant():
        return None
    r = vf.r.num * vf.r.den.constant_value() ** -1
    if r.terms != {(0, 2): Fraction(-1)}:
        return None
    w = vf.w.num * vf.w.den.constant_value() ** -1
    if any(k not in ((2, 0), (1, 1), (0, 2)) for k in w.terms):
        return None
    return QuadVF(w.terms.get((2, 0), Fraction(0)),
                  w.terms.get((1, 1), Fraction(0)),
                  w.terms.get((0, 2), Fraction(0)))


def _apply_piece(uvw, piece):
    """Conjugate the univariate field by one HomBir piece, exactly."""
    out = conjugate_vf(uvw.vector_field(), piece)
    q = _quad_uvw(out)
    if q is None:
        raise VerificationFailed("chain piece left the univariate form")
    return q


def _shear(b):
    return HomBir.linear(LinearMap2(1, Fraction(b), 0, 1))


def _chain_to_canonical(uvw, N):
    """HomBir pieces taking (U,V,W).(-y^2) to ((N-1)xy).(-y^2)."""
    pieces = []
    cur = uvw
    inv = HomBir.involution_i()
    if cur.W != 0:
        if cur.U != 0:
            b = (N - 1 - cur.V) / (2 * cur.U)
        else:
            b = -cur.W / (cur.V + 1)
        pieces.append(_shear(b))
        cur = _apply_piece(cur, pieces[-1])
    if cur.W != 0:
        raise VerificationFailed("shear did not clear W")
    if cur.V == N - 1:
        if cur.U != 0:
            for piece in (inv, _shear(Fraction(-cur.U, N)), inv):
                pieces.append(piece)
                cur = _apply_piece(cur, piece)
    elif cur.V == -N - 1:
        pieces.append(inv)
        cur = _apply_piece(cur, inv)
        if cur.W != 0:
            b = -cur.W / (cur.V + 1)
            pieces.append(_shear(b))
            cur = _apply_piece(cur, pieces[-1])
    else:
        raise VerificationFailed("delta does not match the level")
    if cur.triple() != (0, N - 1, 0):
        raise VerificationFailed("canonical chain failed: %r" % (cur,))
    return pieces


def _compose_chain(pieces):
    ell = HomBir.identity()
    for piece in pieces:
        ell = ell.compose(piece)
    return ell


# -- degenerate flows ------------------------------------------------------

def _split_inverse(coord):
    """For w = B R/(cR+1) != 0 return (c/B, B*R) from 1/w."""
    h = RatFn(coord.den, coord.num)
    n, d = h.num, h.den
    if n.total_degree() == d.total_degree():
        parts_n = n.homogeneous_parts()
        parts_d = d.homogeneous_parts()
        top = n.total_degree()
        ratio = _rf(parts_n[top], parts_d[top])
        if not ratio.num.is_constant() or not ratio.den.is_constant():
            raise NotDegenerate("top-degree ratio is not constant")
        k = ratio.num.constant_value() / ratio.den.constant_value()
        rest = h - RatFn.const(k, 2)
    else:
        k = Fraction(0)
        rest = h
    if rest.is_zero() or rest.homogeneity_degree() != -1:
        raise NotDegenerate("no 1-homogenic core")
    return k, RatFn(rest.den, rest.num)


def classify_degenerate(f):
    """Structure of a translation-equation solution failing the boundary
    condition: A R/(cR+1) . B R/(cR+1) with R 1-homogenic, R(A, B) = 1."""
    if check_boundary(f):
        raise NotDegenerate("boundary condition holds")
    if f.u.is_zero() and f.v.is_zero():
        return Degenerate(_rf(Y), Fraction(0), Fraction(0), Fraction(0))
    base = f.v if f.u.is_zero() else f.u
    k, S = _split_inverse(base)          # S = (A or B) * R
    # normalize R to a primitive representative; constants go into A, B
    R = RatFn(S.num.unit_normal(), S.den.unit_normal())
    scale = S / R
    if not (scale.num.is_constant() and scale.den.is_constant()):
        raise NotDegenerate("inconsistent homogeneous core")
    coef = scale.num.constant_value() / scale.den.constant_value()
    if f.u.is_zero():
        A, B = Fraction(0), coef
    else:
        A = coef
        if f.v.is_zero():
            B = Fraction(0)
        else:
            ratio = f.v / f.u
            if not (ratio.num.is_constant() and ratio.den.is_constant()):
                raise NotDegenerate("coordinate ratio is not constant")
            B = A * ratio.num.constant_value() / ratio.den.constant_value()
    c = k * (B if f.u.is_zero() else A)
    # verify the representation and the normalization R(A, B) = 1
    Rn, Rd = R.num, R.den
    rAB_n = Rn.eval((A, B))
    rAB_d = Rd.eval((A, B))
    if rAB_d == 0 or rAB_n / rAB_d != 1:
        raise NotDegenerate("R(A, B) != 1")
    den = R * c + 1
    if Flow(R * A / den, R * B / den) != f:
        raise NotDegenerate("not of the degenerate product form")
    return Degenerate(R, c, A, B)


# -- Step I: denominator reduction ----------------------------------------

class AlreadyQuadratic(Verdict):
    kind = "AlreadyQuadratic"


class Obstruction(Verdict):
    kind = "Obstruction"

    def __init__(self, reason):
        self.reason = reason


def _common_form(vf):
    """(P, Q, D) with w = P/D, r = Q/D and D unit-normal."""
    D = poly_lcm(vf.w.den, vf.r.den)
    P = vf.w.num * divexact(D, vf.w.den)
    Q = vf.r.num * divexact(D, vf.r.den)
    return P, Q, D


def _roots_of(poly):
    """Rational projective roots [(x0, y0), ...] in canonical order."""
    scale, factors, remainder = linear_factors_q(poly)
    roots = []
    for fac, mult in factors:
        b = fac.terms.get((1, 0), Fraction(0))
        a = -fac.terms.get((0, 1), Fraction(0))
        roots.append(((a, b), mult))
    return roots, remainder


def _is_proportional(P, Q):
    if P.is_zero() or Q.is_zero():
        return True
    return (P * Q.leading_coeff() - Q * P.leading_coeff()).is_zero()


def _den_degree(vf):
    return poly_lcm(vf.w.den, vf.r.den).total_degree()


def _linear_candidates(P, Q, D):
    """Linear changes from the rank analysis of the reduction step."""
    cands = [LinearMap2(1, 0, 0, 1)]
    droots, _ = _roots_of(D)
    bass = P * Q.derivative(0) - P.derivative(0) * Q
    broots, _ = _roots_of(bass)
    for (x0, y0), _m in droots:
        for (xi, chi), _m2 in broots:
            if chi * x0 - xi * y0 == 0:
                continue
            for star in (None, 0):
                Ps = P if star is None else P.derivative(0)
                Qs = Q if star is None else Q.derivative(0)
                ps, qs = Ps.eval((xi, chi)), Qs.eval((xi, chi))
                p0, q0 = P.eval((x0, y0)), Q.eval((x0, y0))
                al = x0 * qs - xi * q0
                be = -x0 * ps + xi * p0
                ga = y0 * qs - chi * q0
                de = -y0 * ps + chi * p0
                if al * de - be * ga != 0:
                    cands.append(LinearMap2(al, be, ga, de))
    # fallback maneuver: force a y-factor into the denominator
    for (x0, y0), _m in droots:
        if y0 == 0:
            continue
        p0, q0 = P.eval((x0, y0)), Q.eval((x0, y0))
        # want hatQ(1,0) = 0 and x0 hatQ(x0,y0) - y0 hatP(x0,y0) = 0
        p10, q10 = P.eval((1, 0)), Q.eval((1, 0))
        for al, be in ((1, 0), (0, 1), (1, 1), (1, -1)):
            # pick (ga, de) solving the two linear constraints when possible
            # ga*p10 + de*q10 = 0 ; x0(ga p0 + de q0) = y0(al p0 + be q0)
            a11, a12, b1 = p10, q10, Fraction(0)
            a21, a22 = x0 * p0, x0 * q0
            b2 = y0 * (al * p0 + be * q0)
            det = a11 * a22 - a12 * a21
            if det == 0:
                continue
            ga = (b1 * a22 - a12 * b2) / det
            de = (a11 * b2 - b1 * a21) / det
            if al * de - be * ga != 0:
                cands.append(LinearMap2(al, be, ga, de))
    return cands


def _radial_candidates(vf1):
    P1, Q1, D1 = _common_form(vf1)
    droots, drem = _roots_of(D1)
    bass1 = P1 * Q1.derivative(0) - P1.derivative(0) * Q1
    cross = Y * P1 - X * Q1
    dens = []
    for poly in (bass1, cross):
        if poly.is_zero():
            continue
        roots, _ = _roots_of(poly)
        dens.extend(r for r, _m in roots)
    out = []
    for (x0, y0), _m in droots:
        num = X * y0 - Y * x0
        for (xi, chi) in dens:
            if x0 * chi - y0 * xi == 0:
                continue
            out.append(_rf(num, X * chi - Y * xi))
        if y0 != 0:
            out.append(_rf(num, Y))
    return out, drem


def reduce_denominator_step(vf):
    """One strict reduction of the common-denominator degree, as a pair
    (linear change, radial conjugation); returns the new field and the
    applied pieces."""
    P, Q, D = _common_form(vf)
    if D.total_degree() == 0:
        return AlreadyQuadratic()
    if _is_proportional(P, Q):
        return Obstruction("proportional")
    blocked = []
    d0 = D.total_degree()
    for L in _linear_candidates(P, Q, D):
        try:
            vf1 = conjugate_vf_linear(vf, L)
        except AlgebraError:
            continue
        cands, drem = _radial_candidates(vf1)
        if not drem.is_constant():
            blocked.append(drem)
        for A in cands:
            vf2 = conjugate_vf_radial(vf1, A)
            if _den_degree(vf2) < d0:
                return {"vf": vf2, "applied": [(L, A)]}
            # two-stage maneuver: keep degree but introduce a y-factor
            P2, Q2, D2 = _common_form(vf2)
            if (_den_degree(vf2) == d0 and not _is_proportional(P2, Q2)
                    and D2.terms and all(k[1] >= 1 for k in D2.terms)
                    and not all(k[1] >= 1 for k in D.terms)):
                for L2 in _linear_candidates(P2, Q2, D2):
                    try:
                        vf3 = conjugate_vf_linear(vf2, L2)
                    except AlgebraError:
                        continue
                    cands2, _rem2 = _radial_candidates(vf3)
                    for A2 in cands2:
                        vf4 = conjugate_vf_radial(vf3, A2)
                        if _den_degree(vf4) < d0:
                            return {"vf": vf4,
                                    "applied": [(L, A), (L2, A2)]}
    _raise_nrr(blocked[0] if blocked else D)


def _raise_nrr(poly):
    err = NeedsRationalRoot("required roots are irrational")
    err.blocking_poly = poly
    raise err


# -- Step II ---------------------------------------------------------------

def step2_obstruction(vf):
    """Quadratic-form field with r = 0: rational only for w = z x^2 or
    w = z y^2; otherwise the flow is exp/tan-type."""
    if not vf.r.is_zero():
        raise AlgebraError("expected r = 0")
    q = vf.w
    if q.is_zero():
        return Identity()
    if not q.den.is_constant():
        raise AlgebraError("expected a polynomial quadratic form")
    w = q.num * (1 / q.den.constant_value())
    U = w.terms.get((2, 0), Fraction(0))
    V = w.terms.get((1, 1), Fraction(0))
    W = w.terms.get((0, 2), Fraction(0))
    disc = V * V - 4 * U * W
    if U == 0 and V == 0:
        # w = W y^2:  u = x + W y^2
        return {"kind": "rational", "flow": Flow(_rf(X + W * Y * Y), _rf(Y)),
                "normal": "x+zy^2"}
    if V == 0 and W == 0:
        return {"kind": "rational",
                "flow": Flow(_rf(X, Poly.const(2, 1) - U * X), _rf(Y)),
                "normal": "x/(1-zx)"}
    if disc == 0:
        # a perfect square, linearly conjugate to z x^2
        return {"kind": "rational", "normal": "x/(1-zx)", "flow": None}
    if U == 0:
        return NonRational("phi_e", detail="w ~ xy, flow x e^y . y type")
    if disc > 0:
        return NonRational("phi_e_prime", detail="w ~ x(x+y)")
    return NonRational("phi_t", detail="w ~ x^2 + y^2, tangent type")


# -- Step III --------------------------------------------------------------

_EXCEPTIONAL = {
    (-2, -2): ((-2, -2), 3),
    (-3, -3): ((-3, -3), 4), (-1, -3): ((-3, -3), 4), (-3, -1): ((-3, -3), 4),
    (-1, -2): ((-1, -2), 6), (-5, -2): ((-1, -2), 6),
    (-2, -1): ((-1, -2), 6), (-5, -1): ((-1, -2), 6),
    (-2, -5): ((-1, -2), 6), (-1, -5): ((-1, -2), 6),
}

_BASE_ORBITS = {
    (-2, -2): ("x*y*(x-y)", 3),
    (-3, -3): ("x*y*(x-y)^2", 4),
    (-1, -2): ("(3*x-2*y)*x^3*y^2", 6),
}


def _as_quadratic(p):
    if isinstance(p, RatFn):
        if not p.den.is_constant():
            raise AlgebraError("expected polynomial quadratic form")
        p = p.num * (1 / p.den.constant_value())
    if not p.is_zero() and (not p.is_homogeneous() if hasattr(p, "is_homogeneous")
                            else any(sum(k) != 2 for k in p.terms)):
        raise AlgebraError("expected a quadratic form")
    return p


def quadratic_classify(P, Q):
    """Case analysis for a polynomial quadratic-form vector field."""
    P = _as_quadratic(P)
    Q = _as_quadratic(Q)
    cubic = Y * P - X * Q
    if cubic.is_zero():
        return {"kind": "level0"}
    if _is_proportional(P, Q):
        return {"kind": "step2"}
    scale, factors, remainder = linear_factors_q(cubic)
    if not remainder.is_constant():
        _raise_nrr(cubic)
    if len(factors) == 1 and factors[0][1] == 3:
        return _cube_case(P, Q, factors[0][0])
    # two distinct root directions give the triangular shape
    roots = []
    for fac, mult in factors:
        b = fac.terms.get((1, 0), Fraction(0))
        a = -fac.terms.get((0, 1), Fraction(0))
        roots.append((a, b))
    for i in range(len(roots)):
        for j in range(len(roots)):
            if i == j:
                continue
            (a, c), (b, d) = roots[i], roots[j]
            if a * d - b * c == 0:
                continue
            L = LinearMap2(a, b, c, d)
            vf1 = conjugate_vf_linear(VectorField(_rf(P), _rf(Q)), L)
            res = _triangular_case(vf1, VectorField(_rf(P), _rf(Q)))
            if res is None:
                continue
            if isinstance(res, dict) and res.get("kind") == "univariate":
                sub = univariate_classify(res["uvw"])
                if isinstance(sub, (PseudoLog, NonIntegerLevel)):
                    return sub
                res = dict(res, classification=sub)
            return res
    raise VerificationFailed("no usable root pair in the cubic")


def _cube_case(P, Q, lin):
    """y P - x Q = s l^3: move l to x and read the shape a x^2 + b x y."""
    b_ = lin.terms.get((1, 0), Fraction(0))
    a_ = -lin.terms.get((0, 1), Fraction(0))
    # send the triple-root direction to (0 : 1) so the cubic becomes ~ x^3
    if b_ != 0:
        L = LinearMap2(1, a_, 0, b_)
    else:
        L = LinearMap2(0, a_, 1, 0)
    vf1 = conjugate_vf_linear(VectorField(_rf(P), _rf(Q)), L)
    P1 = vf1.w.num * (1 / vf1.w.den.constant_value())
    Q1 = vf1.r.num * (1 / vf1.r.den.constant_value())
    cubic1 = Y * P1 - X * Q1
    if any(k != (3, 0) for k in cubic1.terms):
        raise VerificationFailed("cube normalization failed")
    a = P1.terms.get((2, 0), Fraction(0))
    b = P1.terms.get((1, 1), Fraction(0))
    if P1.terms.get((0, 2), Fraction(0)) != 0:
        raise VerificationFailed("unexpected y^2 term in the cube case")
    if b != 0:
        return NonRational("log_cube",
                           detail="lambda-obstruction, b = %s" % b)
    # b = 0: swap coordinates; the field becomes univariate with delta = 0
    if a == 0:
        return {"kind": "step2"}
    return univariate_classify(QuadVF(0, -1, Fraction(-1) / (a * a)))


def _triangular_case(vf1, vf0):
    """vf1 = (a'x^2 + b'xy, c'xy + d'y^2) after the root-pair conjugation."""
    if not (vf1.w.den.is_constant() and vf1.r.den.is_constant()):
        return None
    P1 = vf1.w.num * (1 / vf1.w.den.constant_value())
    Q1 = vf1.r.num * (1 / vf1.r.den.constant_value())
    if P1.terms.get((0, 2), Fraction(0)) != 0 or \
            Q1.terms.get((2, 0), Fraction(0)) != 0:
        return None
    a = P1.terms.get((2, 0), Fraction(0))
    b = P1.terms.get((1, 1), Fraction(0))
    c = Q1.terms.get((1, 1), Fraction(0))
    d = Q1.terms.get((0, 2), Fraction(0))
    if c == 0 and d == 0:
        return {"kind": "step2"}
    if a == 0 and b == 0:
        return {"kind": "step2"}
    if c == 0:
        # rescale y so the second coordinate becomes -y^2
        return {"kind": "univariate", "uvw": QuadVF(a, -b / d, 0)}
    if b == 0:
        # swap the coordinates, then rescale
        if a == 0:
            return {"kind": "step2"}
        return {"kind": "univariate", "uvw": QuadVF(d, -c / a, 0)}
    if d == 0 or a == 0:
        return NonRational("log_type", detail="a'=0 or d'=0")
    Bq = b / d
    Cq = c / a
    if Bq.denominator != 1 or Cq.denominator != 1:
        return NonRational("non_integer_exponent", detail=(Bq, Cq))
    return _bc_iteration(int(Bq), int(Cq), vf0)


def _bc_iteration(B, C, vf0):
    seen = set()
    while True:
        if (B, C) in seen:
            raise VerificationFailed("(B, C) iteration cycled: %s" % ((B, C),))
        seen.add((B, C))
        if B == 1 and C == 1:
            return {"kind": "level0"}
        if B + C == 2:
            # radial A = -y/(x+y) gives ((C-2) x y, -y^2)
            return {"kind": "univariate", "uvw": QuadVF(0, C - 2, 0),
                    "via": "A=-y/(x+y)"}
        if (B == 1) != (C == 1):
            return NonRational("log_type", detail=(B, C))
        if (B == 2 and C != 0) or (C == 2 and B != 0):
            return NonRational("log_type", detail=(B, C))
        key = (B, C) if (B, C) in _EXCEPTIONAL else (C, B)
        if key in _EXCEPTIONAL:
            rep, level = _EXCEPTIONAL[key]
            try:
                orbit = orbit_invariant(vf0, level)
            except (NoRationalSolution, AlgebraError):
                orbit = None
            return NonRationalGenus1(rep, orbit, level)
        num, den = B + C - 2, B * C - 1
        if den == 0 or num % den != 0:
            return NonRational("arithmetic_obstruction", detail=(B, C))
        B = num // den


# -- Step IV ---------------------------------------------------------------

def univariate_classify(q):
    """Level and family parameters for (U x^2 + V x y + W y^2, -y^2)."""
    d2 = q.delta_squared()
    if d2 == 0:
        return PseudoLog(_compose_chain(_pseudolog_chain(q)))
    if d2 < 0:
        return NonIntegerLevel(d2)
    num_r = _fraction_sqrt(d2)
    if num_r is None or num_r.denominator != 1:
        return NonIntegerLevel(d2)
    N = int(num_r)
    if q.W != 0:
        sigma = q.W
        tau = (N - 1 - q.V) / (2 * q.W)
        return {"kind": "level", "N": N, "family": "uniN",
                "sigma": sigma, "tau": tau,
                "w0": tau, "w1": (tau - Fraction(N) / sigma)}
    if q.V == N - 1:
        return {"kind": "level", "N": N, "family": "uniN",
                "sigma": Fraction(0), "tau": Fraction(-q.U, 1) / N}
    if q.V == -N - 1:
        return {"kind": "level", "N": N, "family": "kapa",
                "kappa": q.U / N}
    return NonIntegerLevel(d2)


def _fraction_sqrt(fr):
    fr = Fraction(fr)
    if fr < 0:
        return None
    n = _isqrt(fr.numerator)
    d = _isqrt(fr.denominator)
    if n is None or d is None:
        return None
    return Fraction(n, d)


def _isqrt(n):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


# -- univariate families ---------------------------------------------------

def vecc(N, sigma, tau):
    """Vector field first coordinate of the (sigma, tau) family."""
    sigma, tau = Fraction(sigma), Fraction(tau)
    U = (sigma * tau - N) * tau
    V = N - 1 - 2 * sigma * tau
    W = sigma
    return QuadVF(U, V, W).vector_field()


def uniN(N, sigma, tau):
    """The univariate flow of level N with parameters (sigma, tau)."""
    sigma, tau = Fraction(sigma), Fraction(tau)
    yp = (Y + 1) ** N
    core = yp * ((N - sigma * tau) * X + sigma * Y)
    tail = tau * X - Y
    num = core + sigma * tail
    den = tau * core - (N - sigma * tau) * tail
    u = _rf(num, den) * _rf(Y, Y + 1)
    return Flow(u, _rf(Y, Y + 1))


def kapa(N, kappa):
    """The boundary univariate flow of level N with parameter kappa."""
    kappa = Fraction(kappa)
    yp = (Y + 1) ** N
    den = (Y + 1) * (yp * (Y - kappa * X) + kappa * X)
    return Flow(_rf(X * Y, den), _rf(Y, Y + 1))


# -- main pipeline ---------------------------------------------------------

def _univariate_form(vf):
    """(QuadVF, ell, family_basis) via the radial conjugation from the
    univariate-form equation."""
    sol = solve_differ(vf)
    f1 = sol["particular"]
    A = homogenize_0(f1)
    ell = HomBir.from_A(A)
    out = conjugate_vf_radial(vf, A)
    q = _quad_uvw(out)
    if q is None:
        raise VerificationFailed("radial conjugation missed the normal form")
    return q, ell, sol["homogeneous_basis"]


def canonicalize(f):
    """Full classification of a flow; certifies RationalFlow verdicts by a
    structural conjugation check.

    A map that satisfies the boundary condition has a 2-homogenic vector
    field whether or not it is a flow.  Before such a map gets any verdict
    other than RationalFlow, and when one of its certificate checks fails,
    ``verify_pde`` decides whether it is a flow at all; a non-flow raises
    AlgebraError("not a flow").
    """
    if not isinstance(f, Flow):
        f = Flow(*f)
    if f.is_identity():
        return Identity()
    if not check_boundary(f):
        return classify_degenerate(f)
    try:
        verdict = _canonicalize_boundary(f)
    except (VerificationFailed, NotLevel0Form) as exc:
        _require_flow(f, exc)
        raise
    if not isinstance(verdict, RationalFlow):
        _require_flow(f)
    return verdict


def _require_flow(f, cause=None):
    if not verify_pde(f):
        raise AlgebraError("not a flow: the translation equation fails") from cause


def _canonicalize_boundary(f):
    vf = vector_field(f)
    lvl = level_of(vf)
    if lvl.tag == "NonIntegerSquare" and lvl.value != 0:
        return NonIntegerLevel(lvl.value)
    if lvl.tag == "Level" and lvl.n == 0:
        J = level0_J(f)
        A = _rf(Poly(2, {(0, 1): Fraction(-1)})) / J
        ell = HomBir.from_A(A)
        target = canonical_flow(0)
        if not _conjugates_to(f, ell, target):
            raise VerificationFailed("level-0 conjugation check failed")
        return RationalFlow(0, ell, _rf(X, Y), None)
    try:
        q, ell, basis = _univariate_form(vf)
    except NoRationalSolution:
        return NonRational("no_univariate_form")
    res = univariate_classify(q)
    if isinstance(res, NonIntegerLevel):
        return res
    if isinstance(res, PseudoLog):
        return PseudoLog(ell.compose(res.ell_to_normal_form))
    N = res["N"]
    pieces = _chain_to_canonical(q, N)
    full = _compose_chain([ell] + pieces)
    target = canonical_flow(N)
    if not _conjugates_to(f, full, target):
        raise VerificationFailed("canonical conjugation check failed")
    orbit_W = orbit_invariant(vf, N)
    if N >= 2:
        coords = HyperboloidPoint(q.U, q.V, q.W, N)
    elif N == 1:
        coords = _phat_from_uvw(q)
    else:
        coords = None
    return RationalFlow(N, full, orbit_W, coords)


def _conjugates_to(f, a, target):
    """True iff a^{-1} o f o a == target, checked as f o a == a o target:
    the same identity without composing a^{-1} with the large f o a."""
    ax, ay = a.coords()
    return (f.u.subs([ax, ay]) == ax.subs([target.u, target.v])
            and f.v.subs([ax, ay]) == ay.subs([target.u, target.v]))


def _pseudolog_chain(q):
    """Pieces taking a delta = 0 univariate field to (-x^2 - x y, -y^2)."""
    pieces = []
    cur = q
    if cur.U == 0:
        pieces.append(HomBir.involution_i())
        cur = _apply_piece(cur, pieces[-1])
    if cur.U == 0:
        raise VerificationFailed("pseudo-log chain: U stayed 0")
    b = (-1 - cur.V) / (2 * cur.U)
    if b != 0:
        pieces.append(_shear(b))
        cur = _apply_piece(cur, pieces[-1])
    if cur.W != 0 or cur.V != -1:
        raise VerificationFailed("pseudo-log chain failed")
    if cur.U != -1:
        p = Fraction(-1) / cur.U
        piece = HomBir.linear(LinearMap2(p, 0, 0, 1))
        pieces.append(piece)
        cur = _apply_piece(cur, piece)
    if cur.triple() != (-1, -1, 0):
        raise VerificationFailed("pseudo-log normal form not reached")
    return pieces


def orbit_invariant(vf, N):
    """Homogeneous degree-N invariant constant on orbits, normalized to a
    unit-normal denominator and monic numerator."""
    if N == 0:
        return _rf(X, Y)
    sol = rational_solutions(orbit_ode_reduce(vf, N))
    g = sol["homogeneous_basis"]
    if g is None:
        raise NoRationalSolution("no rational orbit invariant")
    W = homogenize_0(g) * _rf(Poly(2, {(0, N): Fraction(1)}))
    return W.scale_num_monic()


def pN_map(f):
    """The univariate coefficient triple of a level >= 2 flow."""
    vf = vector_field(f)
    q, _ell, basis = _univariate_form(vf)
    res = univariate_classify(q)
    if not (isinstance(res, dict) and res.get("kind") == "level"):
        raise AlgebraError("flow is not of integer level >= 2")
    N = res["N"]
    if N < 2:
        raise AlgebraError("pN_map needs level >= 2")
    if basis is not None:
        raise VerificationFailed("univariate form is not unique")
    return HyperboloidPoint(q.U, q.V, q.W, N)


def _phat_from_uvw(q):
    if q.U != 0:
        if q.V != -2:
            return PHatValue(-2 * q.U / (q.V + 2))
        return PHatValue(None)
    if q.V == -2:
        if q.W == 0:
            return PHatValue(None)
        return PHatValue(1 / q.W)
    return PHatValue(Fraction(0))


def phat_map(f):
    """tau (or infinity) for a level-1 flow."""
    vf = vector_field(f)
    q, _ell, _basis = _univariate_form(vf)
    res = univariate_classify(q)
    if not (isinstance(res, dict) and res.get("kind") == "level"
            and res["N"] == 1):
        raise AlgebraError("phat_map needs a level-1 flow")
    return _phat_from_uvw(q)


def _flow_from_uvw(q, N):
    """The univariate flow whose vector field is (q, -y^2)."""
    res = univariate_classify(q)
    if not (isinstance(res, dict) and res.get("kind") == "level"
            and res["N"] == N):
        raise AlgebraError("triple is not on the level-%d hyperboloid" % N)
    if res["family"] == "uniN":
        out = uniN(N, res["sigma"], res["tau"])
    else:
        out = kapa(N, res["kappa"])
    got = _quad_uvw(vector_field(out))
    if got is None or got.triple() != q.triple():
        raise VerificationFailed("family reconstruction mismatch")
    return out


def dual(f):
    """Reflection of the univariate coefficients through the hyperboloid
    center, transported back; an involution on level-N flows, N >= 2."""
    vf = vector_field(f)
    q, ell, _basis = _univariate_form(vf)
    res = univariate_classify(q)
    if not (isinstance(res, dict) and res.get("kind") == "level"):
        raise AlgebraError("dual needs an integer-level flow")
    N = res["N"]
    if N < 2:
        raise AlgebraError("dual needs level >= 2")
    star = QuadVF(-q.U, -q.V - 2, -q.W)
    ustar = _flow_from_uvw(star, N)
    i0 = HomBir.linear(LinearMap2(0, 1, 1, 0))
    # phi* = i0 o ell o U* o ell^{-1} o i0 = conjugate of U* by (ell^{-1} o i0)
    outer = ell.inverse().compose(i0)
    return conjugate_flow(ustar, outer)


# -- symmetric families ----------------------------------------------------

def symmetric_family(N, which="Phi"):
    """The basic coordinate-swap-symmetric flows."""
    if which == "Phi":
        return _Phi(N)
    if which == "PhiPrime":
        return _Phi(-N)
    if which == "phi_tor_1":
        if N != 1:
            raise AlgebraError("phi_tor_1 has level 1")
        return Flow(_rf(X, X + 1), _rf(Y, Y + 1))
    if which == "Psi":
        if N != 1:
            raise AlgebraError("Psi has level 1")
        return _Psi()
    raise AlgebraError("unknown symmetric family %r" % (which,))


def _Phi(N):
    s = X + Y
    sp = s + 1
    if N >= 0:
        num_u = sp ** N * s + (X - Y)
        num_v = sp ** N * s + (Y - X)
        den = 2 * sp ** (N + 1)
        return Flow(_rf(num_u, den), _rf(num_v, den))
    M = -N
    num_u = sp ** M * (X - Y) + s
    num_v = sp ** M * (Y - X) + s
    den = 2 * sp
    return Flow(_rf(num_u, den), _rf(num_v, den))


def _Psi():
    num_u = 2 * X * X * Y * (X + Y) + (X - Y) ** 2 * X
    den_u = (Y - X) * (X * X + X * Y - X + Y)
    num_v = 2 * X * Y * Y * (X + Y) + (X - Y) ** 2 * Y
    den_v = (X - Y) * (Y * Y + X * Y - Y + X)
    return Flow(_rf(num_u, den_u), _rf(num_v, den_v))


# -- the catalogue ---------------------------------------------------------

class ZooEntry:
    __slots__ = ("name", "flow", "level", "orbit_W", "vf", "coords",
                 "zeros", "poles")

    def __init__(self, name, flow, level, orbit_W, vf, coords, zeros, poles):
        self.name, self.flow, self.level = name, flow, level
        self.orbit_W, self.vf, self.coords = orbit_W, vf, coords
        self.zeros, self.poles = zeros, poles

    def __repr__(self):
        return "ZooEntry(%s, level=%d)" % (self.name, self.level)


def _W(num, den=None):
    return _rf(num, den)


def zoo():
    """All catalogue flows with their expected invariants."""
    half = Fraction(1, 2)
    entries = []

    def add(name, flow, level, orbit, vfpair, coords, zp):
        w, r = vfpair
        entries.append(ZooEntry(name, flow, level, orbit,
                                VectorField(_rf(w) if not isinstance(w, RatFn) else w,
                                            _rf(r) if not isinstance(r, RatFn) else r),
                                coords, zp[0], zp[1]))

    xy1 = X + Y + 1
    add("phi_pr", Flow(_rf(X, xy1), _rf(Y, xy1)), 0, _W(X, Y),
        (-X * (X + Y), -Y * (X + Y)), None, (1, 0))
    d01 = X * X * Y + X * Y * Y + X * X + Y * Y
    add("phi0_1", Flow(_rf(X * (X * X + Y * Y), d01),
                       _rf(Y * (X * X + Y * Y), d01)), 0, _W(X, Y),
        (_rf(-X * X * Y * (X + Y), X * X + Y * Y),
         _rf(-X * Y * Y * (X + Y), X * X + Y * Y)), None, (3, 0))
    d02 = X * X + Y
    add("phi0_2", Flow(_rf(X * Y, d02), _rf(Y * Y, d02)), 0, _W(X, Y),
        (_rf(-X ** 3, Y), _rf(-X * X)), None, (2, 1))
    d03 = X * Y + X + Y
    add("phi0_3", Flow(_rf(X * (X + Y), d03), _rf(Y * (X + Y), d03)), 0,
        _W(X, Y),
        (_rf(-X * X * Y, X + Y), _rf(-X * Y * Y, X + Y)), None, (2, 1))

    sq = (X - Y) ** 2
    add("phi_sph_inf", Flow(_rf(sq + X), _rf(sq + Y)), 1, _W(X - Y),
        (sq, sq), PHatValue(Fraction(1)), (2, 0))
    dsph = (X + 1) ** 2 + (Y + 1) ** 2
    add("phi_sph_1", Flow(_rf(X * X + Y * Y + 2 * X, dsph),
                          _rf(X * X + Y * Y + 2 * Y, dsph)), 1,
        _W(X * X + Y * Y, X - Y),
        (-half * X * X + half * Y * Y - X * Y,
         half * X * X - half * Y * Y - X * Y), PHatValue(Fraction(1)), (0, 0))
    add("phi_tor_inf", Flow(_rf(X), _rf(Y, Y + 1)), 1, _W(X),
        (Poly.zero(2), -Y * Y), PHatValue(Fraction(0)), (2, 0))
    add("phi_tor_1", Flow(_rf(X, X + 1), _rf(Y, Y + 1)), 1,
        _W(X * Y, X - Y), (-X * X, -Y * Y), PHatValue(Fraction(1)), (0, 0))
    n11 = X * X + Y * Y * X + Y ** 3
    add("phi1_1", Flow(_rf(n11 ** 2, (Y * Y + X) * X * X),
                       _rf(Y * n11, X * (Y * Y + X))), 1,
        _W((X + Y) * Y, X),
        (_rf(Y * Y * (X + 2 * Y), X), _rf(Y ** 4, X * X)),
        PHatValue(Fraction(0)), (2, 2))
    add("Psi", _Psi(), 1, _W(X * Y, X - Y),
        (_rf(X * X * (X + Y) ** 2, (X - Y) ** 2),
         _rf(Y * Y * (X + Y) ** 2, (X - Y) ** 2)),
        PHatValue(Fraction(-1)), (2, 2))
    add("Phi_1", _Phi(1), 1, _W((X + Y) ** 2, X - Y),
        (-3 * half * X * X - X * Y + half * Y * Y,
         half * X * X - X * Y - 3 * half * Y * Y),
        PHatValue(Fraction(1)), (1, 0))
    add("Phi_1_prime", _Phi(-1), 1, _W(X - Y),
        (-half * (X + Y) ** 2, -half * (X + Y) ** 2),
        PHatValue(Fraction(-1)), (2, 0))
    add("phi_-1", canonical_flow(-1), 1, _W(Y * Y, X),
        (-2 * X * Y, -Y * Y), PHatValue(None), (1, 0))

    add("phi_2", canonical_flow(2), 2, _W(X * Y),
        (X * Y, -Y * Y), HyperboloidPoint(0, 1, 0, 2), (1, 0))
    add("phi2_1", Flow(_rf((Y * Y + X) ** 3, X * X),
                       _rf(Y * (Y * Y + X), X)), 2, _W(Y ** 3, X),
        (_rf(3 * Y * Y), _rf(Y ** 3, X)), HyperboloidPoint(0, 1, 0, 2),
        (2, 1))
    d22 = X * X + X * Y + 2 * X + 1
    add("phi2_2", Flow(_rf(X * xy1, d22), _rf(Y, d22 * xy1)), 2,
        _W((X + Y) ** 2 * X, Y),
        (-X * X + X * Y, -3 * X * Y - Y * Y), HyperboloidPoint(0, 1, 0, 2),
        (0, 0))
    n23 = Y * Y + X
    d23 = X + 2 * X * Y + Y ** 3
    add("phi2_3", Flow(_rf(n23 ** 3, d23 ** 2), _rf(Y * n23, d23)), 2,
        _W(Y ** 4, X * (X - Y)),
        (-4 * X * Y + 3 * Y * Y, _rf(Y ** 3 - 2 * X * Y * Y, X)),
        HyperboloidPoint(-2, 1, 0, 2), (1, 1))
    add("Phi_2", _Phi(2), 2, _W((X + Y) ** 3, X - Y),
        (-2 * X * X - X * Y + Y * Y, X * X - X * Y - 2 * Y * Y),
        HyperboloidPoint(-1, -1, 1, 2), (1, 0))
    add("phi_3", canonical_flow(3), 3, _W(X * Y * Y),
        (2 * X * Y, -Y * Y), HyperboloidPoint(0, 2, 0, 3), (1, 0))
    return entries


def lookup(name, N=None):
    if name == "phi_N":
        return canonical_flow(N if N is not None else 1)
    for entry in zoo():
        if entry.name == name:
            return entry
    raise KeyError(name)
