"""Classification of 2-dimensional rational projective flows over Q.

One pipeline, ``classify_vf``, classifies a vector field by its level,
univariate normal form, canonical conjugator and orbit invariant;
``canonicalize`` runs it on the field of a flow and certifies the result.
Degenerate detection handles a flow with no vector field.  Denominator
reduction and the quadratic-form case analysis (Steps I-III) name the
obstruction of a field that has neither level 0 nor a rational univariate
form; only ``classify_vf`` runs them, since every non-degenerate flow
other than the identity is conjugate to some phi_N.
The level-N coordinate maps and duality read the certified verdict of
``canonicalize``; the dual is ell o phi_{-N} o ell^{-1} with x and y swapped,
from ``HomBir.push_forward_phi``.  Also: symmetric families and a catalogue
of named flows.
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import (
    AlgebraError,
    NeedsRationalRoot,
    Poly,
    RatFn,
    VerificationFailed,
    LinearMap2,
    _form_lists,
    _quotient,
    divexact,
    linear_factors_q,
    poly_dot,
)
from .flowcore import (
    Flow,
    VectorField,
    HyperboloidPoint,
    DegenerateJacobian,
    NotDegenerate,
    check_boundary,
    exact_isqrt,
    level_of,
    _degenerate_form,
    _jet_field,
    _pde_holds,
)
from .birmap import (
    HomBir,
    _compose_involution,
    conjugate_vf_linear,
    conjugate_vf_radial,
    _radial_field,
)
from .odesolve import (
    NoRationalSolution,
    _homogenize,
    _orbit_equation,
    _solutions,
    _solves,
    _univariate_form,
)

X = Poly.var(0, 2)
Y = Poly.var(1, 2)


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
        return VectorField(self.U * X * X + self.V * X * Y + self.W * Y * Y,
                           -Y * Y)

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
        u = RatFn(X * yp1 ** (N - 1))
    else:
        u = RatFn(X, yp1 ** (1 - N))
    return Flow(u, RatFn(Y, yp1))


_QUADRATIC = ((2, 0), (1, 1), (0, 2))


def _coeffs(p, exps=_QUADRATIC):
    """The coefficients of p at ``exps``, by default those of x^2, xy, y^2.

    A field with a constant denominator has D = 1, so its P and Q are its
    w and r and their coefficients are read here directly."""
    terms = p.terms
    return [terms.get(e, Fraction(0)) for e in exps]


def _quad_uvw(P, Q, D):
    """Read (U, V, W) off the field (P/D, Q/D), reduced or not, or None
    unless it is the univariate form (U x^2 + V x y + W y^2, -y^2): that
    is Q = -y^2 D, and D divides P."""
    w = _quotient(P, D) if Q == -Y * Y * D else None
    return None if w is None else QuadVF(*_coeffs(w))


class _Chain:
    """A radial map P/Q, by default the identity, followed by pieces that
    act on a univariate triple ``q``.  Each move updates (U, V, W) and
    the unnormalized (P, Q; L) by exact formulas; ``ell`` normalizes once.
    ``conjugate_vf`` is the long way round."""

    def __init__(self, q, P=Poly.const(2, 1), Q=Poly.const(2, 1)):
        self.q, self.P, self.Q = q, P, Q
        self.L = LinearMap2.identity()

    @property
    def ell(self):
        return HomBir._coprime(self.P, self.Q, self.L)

    def shear(self, b):
        """x -> x + b y."""
        U, V, W = self.q.triple()
        self.L = self.L.compose(LinearMap2(1, b, 0, 1))
        self.q = QuadVF(U, 2 * b * U + V, U * b * b + V * b + W + b)

    def involution(self):
        """``HomBir.involution_i()``."""
        U, V, W = self.q.triple()
        self.P, self.Q, self.L = _compose_involution(self.P, self.Q, self.L)
        self.q = QuadVF(-W, -V - 2, -U)

    def x_scale(self, p):
        """x -> p x."""
        U, V, W = self.q.triple()
        self.L = self.L.compose(LinearMap2(p, 0, 0, 1))
        self.q = QuadVF(p * U, V, W / p)


def _chain_to_canonical(uvw, N, A):
    """The radial map of A composed with the pieces taking (U,V,W).(-y^2)
    to ((N-1)xy).(-y^2)."""
    ch = _Chain(uvw, A.num, A.den)
    if ch.q.W != 0:
        if ch.q.U != 0:
            ch.shear((N - 1 - ch.q.V) / (2 * ch.q.U))
        else:
            ch.shear(-ch.q.W / (ch.q.V + 1))
    if ch.q.W != 0:
        raise VerificationFailed("shear did not clear W")
    if ch.q.V == N - 1:
        if ch.q.U != 0:
            b = Fraction(-ch.q.U, N)
            ch.involution()
            ch.shear(b)
            ch.involution()
    elif ch.q.V == -N - 1:
        ch.involution()
        if ch.q.W != 0:
            ch.shear(-ch.q.W / (ch.q.V + 1))
    else:
        raise VerificationFailed("delta does not match the level")
    if ch.q.triple() != (0, N - 1, 0):
        raise VerificationFailed("canonical chain failed: %r" % (ch.q,))
    return ch.ell


# -- degenerate flows ------------------------------------------------------

def classify_degenerate(f):
    """Structure of a translation-equation solution failing the boundary
    condition: A R/(cR+1) . B R/(cR+1) with R 1-homogenic, R(A, B) = 1.

    Every solution failing the boundary condition has this form, so for
    such a map ``verify_translation`` returns whether this succeeds; any
    other map raises NotDegenerate."""
    if check_boundary(f):
        raise NotDegenerate("boundary condition holds")
    return Degenerate(*_degenerate_form(f))


# -- Step I: denominator reduction ----------------------------------------

class AlreadyQuadratic(Verdict):
    kind = "AlreadyQuadratic"


class Obstruction(Verdict):
    kind = "Obstruction"

    def __init__(self, reason):
        self.reason = reason


def _roots_of(poly):
    """Rational projective roots [(x0, y0), ...] in canonical order."""
    scale, factors, remainder = linear_factors_q(poly)
    roots = []
    for fac, mult in factors:
        b, a = _coeffs(fac, ((1, 0), (0, 1)))
        roots.append(((-a, b), mult))
    return roots, remainder


def _is_proportional(P, Q):
    if P.is_zero() or Q.is_zero():
        return True
    return (P * Q.leading_coeff() - Q * P.leading_coeff()).is_zero()


def _linear_candidates(P, Q, D):
    """Linear changes from the rank analysis of the reduction step."""
    cands = [LinearMap2(1, 0, 0, 1)]
    droots, _ = _roots_of(D)
    bass = poly_dot([(P, Q.derivative(0)), (-P.derivative(0), Q)])
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
    P1, Q1, D1 = vf1.P, vf1.Q, vf1.D
    droots, drem = _roots_of(D1)
    bass1 = poly_dot([(P1, Q1.derivative(0)), (-P1.derivative(0), Q1)])
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
            out.append(RatFn(num, X * chi - Y * xi))
        if y0 != 0:
            out.append(RatFn(num, Y))
    return out, drem


def reduce_denominator_step(vf):
    """One strict reduction of the common-denominator degree, as a pair
    (linear change, radial conjugation); returns the new field and the
    applied pieces."""
    P, Q, D = vf.P, vf.Q, vf.D
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
            P2, Q2, D2 = vf2.P, vf2.Q, vf2.D
            if D2.total_degree() < d0:
                return {"vf": vf2, "applied": [(L, A)]}
            # two-stage maneuver: keep degree but introduce a y-factor
            if (D2.total_degree() == d0 and not _is_proportional(P2, Q2)
                    and all(e[1] >= 1 for e in D2.terms)
                    and not all(e[1] >= 1 for e in D.terms)):
                for L2 in _linear_candidates(P2, Q2, D2):
                    try:
                        vf3 = conjugate_vf_linear(vf2, L2)
                    except AlgebraError:
                        continue
                    cands2, _rem2 = _radial_candidates(vf3)
                    for A2 in cands2:
                        vf4 = conjugate_vf_radial(vf3, A2)
                        if vf4.D.total_degree() < d0:
                            return {"vf": vf4,
                                    "applied": [(L, A), (L2, A2)]}
    raise NeedsRationalRoot(blocked[0] if blocked else D)


# -- Step II ---------------------------------------------------------------

def step2_obstruction(vf):
    """Quadratic-form field with r = 0: rational only for w = z x^2 or
    w = z y^2; otherwise the flow is exp/tan-type.  A field (w, r) with w
    and r proportional is first taken to r = 0 by a linear change."""
    if not vf.Q.is_zero():
        if vf.P.is_zero():
            vf = conjugate_vf_linear(vf, LinearMap2.swap())
        else:
            lam = vf.Q.leading_coeff() / vf.P.leading_coeff()
            if vf.Q != vf.P * lam:
                raise AlgebraError("expected r = 0 or r proportional to w")
            vf = conjugate_vf_linear(vf, LinearMap2(1, 0, lam, 1))
    if vf.P.is_zero():
        return Identity()
    if not vf.D.is_constant():
        raise AlgebraError("expected a polynomial quadratic form")
    U, V, W = _coeffs(vf.P)
    disc = V * V - 4 * U * W
    if U == 0 and V == 0:
        # w = W y^2:  u = x + W y^2
        return {"kind": "rational", "flow": Flow(RatFn(X + W * Y * Y), RatFn(Y)),
                "normal": "x+zy^2"}
    if V == 0 and W == 0:
        return {"kind": "rational",
                "flow": Flow(RatFn(X, Poly.const(2, 1) - U * X), RatFn(Y)),
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


def _as_quadratic(p):
    if isinstance(p, RatFn):
        p = p.as_poly()
    if not p.is_zero() and (p.min_degree(), p.total_degree()) != (2, 2):
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
    roots, remainder = _roots_of(cubic)
    if not remainder.is_constant():
        raise NeedsRationalRoot(cubic)
    if len(roots) == 1 and roots[0][1] == 3:
        return _cube_case(P, Q, roots[0][0])
    # two distinct root directions give the triangular shape
    vf = VectorField(P, Q)
    for (a, c), _m in roots:
        for (b, d), _m2 in roots:
            if a * d - b * c == 0:
                continue
            res = _triangular_case(
                conjugate_vf_linear(vf, LinearMap2(a, b, c, d)), vf)
            if res is None:
                continue
            if isinstance(res, dict) and res.get("kind") == "univariate":
                sub = univariate_classify(res["uvw"])
                if isinstance(sub, (PseudoLog, NonIntegerLevel)):
                    return sub
                res = dict(res, classification=sub)
            return res
    raise VerificationFailed("no usable root pair in the cubic")


def _cube_case(P, Q, root):
    """y P - x Q = s l^3 with l vanishing at ``root``: move l to x and read
    the shape a x^2 + b x y."""
    a_, b_ = root
    # send the triple-root direction to (0 : 1) so the cubic becomes ~ x^3
    if b_ != 0:
        L = LinearMap2(1, a_, 0, b_)
    else:
        L = LinearMap2(0, a_, 1, 0)
    vf1 = conjugate_vf_linear(VectorField(P, Q), L)
    if any(e != (3, 0) for e in (Y * vf1.P - X * vf1.Q).terms):
        raise VerificationFailed("cube normalization failed")
    a, b, c = _coeffs(vf1.P)
    if c != 0:
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
    if not vf1.D.is_constant():
        return None
    a, b, p02 = _coeffs(vf1.P)
    q20, c, d = _coeffs(vf1.Q)
    if p02 != 0 or q20 != 0:
        return None
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
        return PseudoLog(_pseudolog_chain(q))
    if d2 < 0:
        return NonIntegerLevel(d2)
    N = exact_isqrt(d2)
    if N is None:
        return NonIntegerLevel(d2)
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
    u = RatFn(num, den) * RatFn(Y, Y + 1)
    return Flow(u, RatFn(Y, Y + 1))


def kapa(N, kappa):
    """The boundary univariate flow of level N with parameter kappa."""
    kappa = Fraction(kappa)
    yp = (Y + 1) ** N
    den = (Y + 1) * (yp * (Y - kappa * X) + kappa * X)
    return Flow(RatFn(X * Y, den), RatFn(Y, Y + 1))


# -- main pipeline ---------------------------------------------------------

def classify_vf(vf):
    """Classification of a 2-homogenic vector field (w, r).

    Level 0 gives ell from J = w/x; any other field is put in univariate
    form by the radial map of ``_univariate_form``, then
    ``univariate_classify`` reads its level and the chain of shears and
    involutions takes it to the field of phi_N.  A rational flow has such a
    form, so Steps I-III (``reduce_denominator_step``, ``step2_obstruction``,
    ``quadratic_classify``) run only on a field without one, to name its
    obstruction.
    """
    verdict = _classify_by_form(vf)
    return _name_obstruction(vf) if verdict is None else verdict


def _classify_by_form(vf):
    """The verdict of ``classify_vf`` up to Steps I-III: None when the
    field has no rational univariate form.

    A RationalFlow of level N >= 1 takes its orbit invariant from its
    conjugator: phi_N's invariant x y^(N-1) carried by ell^{-1}
    (``_transported_invariant``), not from the orbit equation."""
    if vf.P.is_zero() and vf.Q.is_zero():
        return Identity()
    lvl = level_of(vf)
    if lvl.tag == "NonIntegerSquare" and lvl.value != 0:
        return NonIntegerLevel(lvl.value)
    if lvl.tag == "Level" and lvl.n == 0:
        J = RatFn(vf.P, X * vf.D)  # w = x J and r = y J
        return RationalFlow(0, HomBir.from_A(RatFn(-Y) / J), RatFn(X, Y), None)
    try:
        A = _homogenize(*_univariate_form(vf)[0])
    except NoRationalSolution:
        return None
    # the radial conjugation by A puts the field in univariate form
    q = _quad_uvw(*_radial_field(vf, A))
    if q is None:
        raise VerificationFailed("radial conjugation missed the normal form")
    res = univariate_classify(q)
    if isinstance(res, NonIntegerLevel):
        return res
    if isinstance(res, PseudoLog):
        return PseudoLog(HomBir.from_A(A).compose(res.ell_to_normal_form))
    N = res["N"]
    full = _chain_to_canonical(q, N, A)
    coords = HyperboloidPoint(q.U, q.V, q.W, N) if N >= 2 else _phat_from_uvw(q)
    return RationalFlow(N, full, _transported_invariant(vf, N, full), coords)


def _transported_invariant(vf, N, ell):
    """The orbit invariant of vf, which ell conjugates to the field of
    phi_N (N >= 1): x y^(N-1) at ell^{-1}(x) = L^{-1}(x) Q/P, that is
    l_x l_y^(N-1) Q^N / P^N = l_x^(1+N(i'-i)) l_y^(N-1+N(j'-j)) Q0^N / P0^N
    by ``HomBir.linear_split``.  Its atoms are coprime, so each goes to the
    side of its exponent's sign: no gcd, no division.  Normalized as
    ``orbit_invariant`` does, W is checked exactly by ``_solves`` on the
    orbit equation (R = 0), whose solutions form one line: W is then
    ``orbit_invariant``'s."""
    lx, ly, i, j, P0, i2, j2, Q0 = ell.linear_split()
    num, den = Q0 ** N, P0 ** N
    for a, e in ((lx, 1 + N * (i2 - i)), (ly, N - 1 + N * (j2 - j))):
        if e > 0:
            num *= a ** e
        elif e < 0:
            den *= a ** -e
    W = RatFn(num * (1 / num.leading_coeff()), den.unit_normal(), reduce=False)
    if not _solves(*_orbit_equation(vf, N), *_form_lists(W.num, W.den)[0]):
        raise VerificationFailed("transported invariant does not solve the "
                                 "orbit equation")
    return W


def _name_obstruction(vf):
    """Steps I-III on a field with no rational univariate form: clear its
    denominator, then read the obstruction off the quadratic form.  Their
    rational outcomes cannot occur on such a field."""
    while not vf.D.is_constant():
        step = reduce_denominator_step(vf)
        if isinstance(step, Obstruction):
            return NonRational("obstruction", detail=step)
        vf = step["vf"]
    out = quadratic_classify(vf.P, vf.Q)
    if isinstance(out, dict) and out["kind"] == "step2":
        out = step2_obstruction(vf)
    if not isinstance(out, Verdict):
        raise VerificationFailed("rational outcome %r without a univariate "
                                 "form" % (out,))
    return out


def canonicalize(f):
    """Full classification of a flow: the verdict of ``classify_vf`` on its
    vector field, with RationalFlow verdicts certified by a structural
    conjugation check.

    A map that satisfies the boundary condition has a 2-homogenic vector
    field whether or not it is a flow.  Before such a map gets a verdict
    other than a certified RationalFlow, or when classifying its field
    raises, the PDE of ``verify_pde`` on that field decides if it is a flow;
    a non-flow raises AlgebraError("not a flow").  A flow that is neither
    the identity nor degenerate is conjugate to some phi_N, so a flow with
    any other verdict raises VerificationFailed.  Steps I-III, which a flow
    never needs and which are slow on large non-flows, never run here: they
    serve ``classify_vf`` only.
    """
    return _classified(f)[0]


def _classified(f):
    """(verdict, vf): ``canonicalize`` and the field it classified, None
    for the identity and for a map that fails the boundary condition."""
    if not isinstance(f, Flow):
        f = Flow(*f)
    if f.is_identity():
        return Identity(), None
    field = _jet_field(f)
    if field is None:
        try:
            return Degenerate(*_degenerate_form(f)), None
        except NotDegenerate as exc:
            raise AlgebraError("not a flow: the map fails the boundary "
                               "condition and has no degenerate form") from exc
    vf = VectorField.of(*field)
    try:
        verdict = _classify_by_form(vf)
    except AlgebraError as exc:
        _require_flow(f, vf, exc)
        raise
    if isinstance(verdict, RationalFlow):
        if _conjugates_to(f, verdict.ell, verdict.level):
            return verdict, vf
        exc = VerificationFailed("canonical conjugation check failed")
        _require_flow(f, vf, exc)
        raise exc
    _require_flow(f, vf)
    raise VerificationFailed("a flow whose field has verdict %r, not a "
                             "rational flow" % (verdict,))


def _require_flow(f, vf, cause=None):
    if not _pde_holds(f, vf.P, vf.Q, vf.D):
        raise AlgebraError("not a flow: the translation equation fails") from cause


def _conjugates_to(f, a, N):
    """True iff a^{-1} o f o a == phi_N, checked as f == a o phi_N o a^{-1}.

    The right side is the closed form ``HomBir.push_forward_phi``, an
    unreduced (N1, N2, D) built from a's own terms, so f never enters a
    substitution and phi_N is never built.  Each coordinate n/d of f is
    tested against its Ni/D by h = D / d, exact when n/d is in lowest
    terms, and Ni == h * n; when the division is inexact the test is
    n * D == d * Ni.  Both tests are exact; a second coordinate over the
    same d reuses h."""
    N1, N2, D = a.push_forward_phi(N)
    for fc, Ni in ((f.u, N1), (f.v, N2)):
        if fc is f.u or fc.den != f.u.den:
            try:
                h = divexact(D, fc.den)
            except AlgebraError:
                h = None
        if not (Ni == h * fc.num if h is not None
                else fc.num * D == fc.den * Ni):
            return False
    return True


def _pseudolog_chain(q):
    """The HomBir taking a delta = 0 univariate field to (-x^2 - x y, -y^2)."""
    ch = _Chain(q)
    if ch.q.U == 0:
        ch.involution()
    if ch.q.U == 0:
        raise VerificationFailed("pseudo-log chain: U stayed 0")
    b = (-1 - ch.q.V) / (2 * ch.q.U)
    if b != 0:
        ch.shear(b)
    if ch.q.W != 0 or ch.q.V != -1:
        raise VerificationFailed("pseudo-log chain failed")
    if ch.q.U != -1:
        ch.x_scale(Fraction(-1) / ch.q.U)
    if ch.q.triple() != (-1, -1, 0):
        raise VerificationFailed("pseudo-log normal form not reached")
    return ch.ell


def orbit_invariant(vf, N):
    """Homogeneous degree-N invariant constant on orbits, normalized to a
    unit-normal denominator and monic numerator, from the rational solution
    of the orbit equation.

    ``classify_vf`` reaches it only for a NonRationalGenus1 field, which has
    no conjugator; a RationalFlow carries phi_N's invariant through its
    conjugator instead (``_transported_invariant``)."""
    if N == 0:
        return RatFn(X, Y)
    g = _solutions(*_orbit_equation(vf, N))[1]
    if g is None:
        raise NoRationalSolution("no rational orbit invariant")
    W = _homogenize(*g) * RatFn(Y ** N)
    return W.scale_num_monic()


def _flow_verdict(f):
    """``canonicalize(f)``; a degenerate flow raises DegenerateJacobian, as
    it has no vector field to give coordinates or a dual."""
    verdict = canonicalize(f)
    if isinstance(verdict, Degenerate):
        raise DegenerateJacobian("Jacobian vanishes identically")
    return verdict


def _coords(f, kind, error):
    """The coordinates ``canonicalize`` certifies for f, of type kind."""
    coords = getattr(_flow_verdict(f), "coords", None)
    if not isinstance(coords, kind):
        raise AlgebraError(error)
    return coords


def pN_map(f):
    """The univariate coefficient triple of a level >= 2 flow."""
    return _coords(f, HyperboloidPoint, "pN_map needs level >= 2")


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
    return _coords(f, PHatValue, "phat_map needs a level-1 flow")


def dual(f):
    """Reflection of the univariate coefficients through the hyperboloid
    center, transported back; an involution on level-N flows, N >= 2.

    Let ell_0 put the field of f in univariate form (U, V, W).(-y^2), the
    field of a univariate flow U_f, and let U* be the univariate flow of the
    reflected triple R(U, V, W) = (-U, -V - 2, -W); the dual is
    i0 o ell_0 o U* o ell_0^{-1} o i0, with i0 the swap of x and y.  R
    commutes with both moves of ``_chain_to_canonical``: after a shear by b
    both orders give (-U, -2bU - V - 2, -Ub^2 - Vb - W - b), after the
    involution both give (W, V, U).  So the pieces c that take (U, V, W) to
    phi_N's (0, N - 1, 0) take R(U, V, W) to (0, -N - 1, 0), the triple of
    kapa(N, 0) = phi_{-N}: U* = c o phi_{-N} o c^{-1}.  With the certified
    ell = ell_0 o c of ``canonicalize``, the dual is
    i0 o ell o phi_{-N} o ell^{-1} o i0, that is ``push_forward_phi(-N)``
    with x and y swapped."""
    verdict = _flow_verdict(f)
    if not isinstance(verdict, RationalFlow) or verdict.level < 2:
        raise AlgebraError("dual needs level >= 2")
    N1, N2, D = verdict.ell.push_forward_phi(-verdict.level)
    yx = [Y, X]
    D = D.subs_polys(yx)
    return Flow(RatFn(N2.subs_polys(yx), D), RatFn(N1.subs_polys(yx), D))


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
        return Flow(RatFn(X, X + 1), RatFn(Y, Y + 1))
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
        return Flow(RatFn(num_u, den), RatFn(num_v, den))
    M = -N
    num_u = sp ** M * (X - Y) + s
    num_v = sp ** M * (Y - X) + s
    den = 2 * sp
    return Flow(RatFn(num_u, den), RatFn(num_v, den))


def _Psi():
    num_u = 2 * X * X * Y * (X + Y) + (X - Y) ** 2 * X
    den_u = (Y - X) * (X * X + X * Y - X + Y)
    num_v = 2 * X * Y * Y * (X + Y) + (X - Y) ** 2 * Y
    den_v = (X - Y) * (Y * Y + X * Y - Y + X)
    return Flow(RatFn(num_u, den_u), RatFn(num_v, den_v))


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


def zoo():
    """All catalogue flows with their expected invariants."""
    half = Fraction(1, 2)
    entries = []

    def add(name, flow, level, orbit, vfpair, coords, zp):
        entries.append(ZooEntry(name, flow, level, orbit, VectorField(*vfpair),
                                coords, zp[0], zp[1]))

    xy1 = X + Y + 1
    add("phi_pr", Flow(RatFn(X, xy1), RatFn(Y, xy1)), 0, RatFn(X, Y),
        (-X * (X + Y), -Y * (X + Y)), None, (1, 0))
    d01 = X * X * Y + X * Y * Y + X * X + Y * Y
    add("phi0_1", Flow(RatFn(X * (X * X + Y * Y), d01),
                       RatFn(Y * (X * X + Y * Y), d01)), 0, RatFn(X, Y),
        (RatFn(-X * X * Y * (X + Y), X * X + Y * Y),
         RatFn(-X * Y * Y * (X + Y), X * X + Y * Y)), None, (3, 0))
    d02 = X * X + Y
    add("phi0_2", Flow(RatFn(X * Y, d02), RatFn(Y * Y, d02)), 0, RatFn(X, Y),
        (RatFn(-X ** 3, Y), RatFn(-X * X)), None, (2, 1))
    d03 = X * Y + X + Y
    add("phi0_3", Flow(RatFn(X * (X + Y), d03), RatFn(Y * (X + Y), d03)), 0,
        RatFn(X, Y),
        (RatFn(-X * X * Y, X + Y), RatFn(-X * Y * Y, X + Y)), None, (2, 1))

    sq = (X - Y) ** 2
    add("phi_sph_inf", Flow(RatFn(sq + X), RatFn(sq + Y)), 1, RatFn(X - Y),
        (sq, sq), PHatValue(Fraction(1)), (2, 0))
    dsph = (X + 1) ** 2 + (Y + 1) ** 2
    add("phi_sph_1", Flow(RatFn(X * X + Y * Y + 2 * X, dsph),
                          RatFn(X * X + Y * Y + 2 * Y, dsph)), 1,
        RatFn(X * X + Y * Y, X - Y),
        (-half * X * X + half * Y * Y - X * Y,
         half * X * X - half * Y * Y - X * Y), PHatValue(Fraction(1)), (0, 0))
    add("phi_tor_inf", Flow(RatFn(X), RatFn(Y, Y + 1)), 1, RatFn(X),
        (Poly.zero(2), -Y * Y), PHatValue(Fraction(0)), (2, 0))
    add("phi_tor_1", Flow(RatFn(X, X + 1), RatFn(Y, Y + 1)), 1,
        RatFn(X * Y, X - Y), (-X * X, -Y * Y), PHatValue(Fraction(1)), (0, 0))
    n11 = X * X + Y * Y * X + Y ** 3
    add("phi1_1", Flow(RatFn(n11 ** 2, (Y * Y + X) * X * X),
                       RatFn(Y * n11, X * (Y * Y + X))), 1,
        RatFn((X + Y) * Y, X),
        (RatFn(Y * Y * (X + 2 * Y), X), RatFn(Y ** 4, X * X)),
        PHatValue(Fraction(0)), (2, 2))
    add("Psi", _Psi(), 1, RatFn(X * Y, X - Y),
        (RatFn(X * X * (X + Y) ** 2, (X - Y) ** 2),
         RatFn(Y * Y * (X + Y) ** 2, (X - Y) ** 2)),
        PHatValue(Fraction(-1)), (2, 2))
    add("Phi_1", _Phi(1), 1, RatFn((X + Y) ** 2, X - Y),
        (-3 * half * X * X - X * Y + half * Y * Y,
         half * X * X - X * Y - 3 * half * Y * Y),
        PHatValue(Fraction(1)), (1, 0))
    add("Phi_1_prime", _Phi(-1), 1, RatFn(X - Y),
        (-half * (X + Y) ** 2, -half * (X + Y) ** 2),
        PHatValue(Fraction(-1)), (2, 0))
    add("phi_-1", canonical_flow(-1), 1, RatFn(Y * Y, X),
        (-2 * X * Y, -Y * Y), PHatValue(None), (1, 0))

    add("phi_2", canonical_flow(2), 2, RatFn(X * Y),
        (X * Y, -Y * Y), HyperboloidPoint(0, 1, 0, 2), (1, 0))
    add("phi2_1", Flow(RatFn((Y * Y + X) ** 3, X * X),
                       RatFn(Y * (Y * Y + X), X)), 2, RatFn(Y ** 3, X),
        (RatFn(3 * Y * Y), RatFn(Y ** 3, X)), HyperboloidPoint(0, 1, 0, 2),
        (2, 1))
    d22 = X * X + X * Y + 2 * X + 1
    add("phi2_2", Flow(RatFn(X * xy1, d22), RatFn(Y, d22 * xy1)), 2,
        RatFn((X + Y) ** 2 * X, Y),
        (-X * X + X * Y, -3 * X * Y - Y * Y), HyperboloidPoint(0, 1, 0, 2),
        (0, 0))
    n23 = Y * Y + X
    d23 = X + 2 * X * Y + Y ** 3
    add("phi2_3", Flow(RatFn(n23 ** 3, d23 ** 2), RatFn(Y * n23, d23)), 2,
        RatFn(Y ** 4, X * (X - Y)),
        (-4 * X * Y + 3 * Y * Y, RatFn(Y ** 3 - 2 * X * Y * Y, X)),
        HyperboloidPoint(-2, 1, 0, 2), (1, 1))
    add("Phi_2", _Phi(2), 2, RatFn((X + Y) ** 3, X - Y),
        (-2 * X * X - X * Y + Y * Y, X * X - X * Y - 2 * Y * Y),
        HyperboloidPoint(-1, -1, 1, 2), (1, 0))
    add("phi_3", canonical_flow(3), 3, RatFn(X * Y * Y),
        (2 * X * Y, -Y * Y), HyperboloidPoint(0, 2, 0, 3), (1, 0))
    return entries


def lookup(name, N=None):
    if name == "phi_N":
        return canonical_flow(N if N is not None else 1)
    for entry in zoo():
        if entry.name == name:
            return entry
    raise KeyError(name)
