"""Flows and vector fields: translation-equation verification, boundary
condition, PDE system, level computation, zeros-poles census, symmetry."""
from __future__ import annotations

import random
from fractions import Fraction

from .algebra import (
    AlgebraError,
    IdenticallySingular,
    Poly,
    RatFn,
    count_real_projective_roots,
    poly_gcd,
    poly_lcm,
    divexact,
)


class DegenerateJacobian(AlgebraError):
    pass


class NotLevel0Form(AlgebraError):
    pass


def _rx():
    return RatFn.var(0, 2)


def _ry():
    return RatFn.var(1, 2)


class Flow:
    """A pair (u, v) of rational functions, a candidate projective flow."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        if isinstance(u, Poly):
            u = RatFn(u)
        if isinstance(v, Poly):
            v = RatFn(v)
        self.u = u
        self.v = v

    @classmethod
    def identity(cls):
        return cls(_rx(), _ry())

    def is_identity(self):
        return self.u == _rx() and self.v == _ry()

    def __eq__(self, other):
        if not isinstance(other, Flow):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return "Flow(%s, %s)" % (self.u.to_string(), self.v.to_string())


class VectorField:
    """The 2-homogenic pair (w, r) = d/dz [phi(xz, yz)/z] at z = 0."""

    __slots__ = ("w", "r")

    def __init__(self, w, r):
        if isinstance(w, Poly):
            w = RatFn(w)
        if isinstance(r, Poly):
            r = RatFn(r)
        for f in (w, r):
            if not f.is_zero() and f.homogeneity_degree() != 2:
                raise AlgebraError("vector field coordinates must be 2-homogenic")
        self.w = w
        self.r = r

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.w == other.w and self.r == other.r

    def __hash__(self):
        return hash((self.w, self.r))

    def __repr__(self):
        return "VectorField(%s, %s)" % (self.w.to_string(), self.r.to_string())

    def radial_part(self):
        """x*r - y*w, the obstruction to level 0."""
        return _rx() * self.r - _ry() * self.w


class LevelResult:
    """Tagged level outcome."""

    __slots__ = ("tag", "n", "value")

    def __init__(self, tag, n=None, value=None):
        self.tag = tag  # IdentityFlow | Level | NonIntegerSquare | Indeterminate
        self.n = n
        self.value = value

    @classmethod
    def level(cls, n):
        return cls("Level", n=n)

    @classmethod
    def identity(cls):
        return cls("IdentityFlow")

    @classmethod
    def non_integer_square(cls, value):
        return cls("NonIntegerSquare", value=value)

    @classmethod
    def indeterminate(cls):
        return cls("Indeterminate")

    def is_level(self, n=None):
        return self.tag == "Level" and (n is None or self.n == n)

    def __eq__(self, other):
        if not isinstance(other, LevelResult):
            return NotImplemented
        return (self.tag, self.n, self.value) == (other.tag, other.n, other.value)

    def __repr__(self):
        if self.tag == "Level":
            return "Level(%d)" % self.n
        if self.tag == "NonIntegerSquare":
            return "NonIntegerSquare(%s)" % self.value
        return self.tag


class HyperboloidPoint:
    """Univariate-form vector field coefficients (X, Y, Z) of a level-N flow;
    they satisfy 4XZ = (Y+1)^2 - N^2."""

    __slots__ = ("X", "Y", "Z", "N")

    def __init__(self, X, Y, Z, N):
        self.X, self.Y, self.Z, self.N = (Fraction(X), Fraction(Y),
                                           Fraction(Z), int(N))
        if 4 * self.X * self.Z != (self.Y + 1) ** 2 - self.N ** 2:
            raise AlgebraError("point not on the level-%d hyperboloid" % N)

    def triple(self):
        return (self.X, self.Y, self.Z)

    def __eq__(self, other):
        if not isinstance(other, HyperboloidPoint):
            return NotImplemented
        return self.triple() == other.triple() and self.N == other.N

    def __repr__(self):
        return "HyperboloidPoint(%s, %s, %s; N=%d)" % (self.X, self.Y, self.Z, self.N)


# -- boundary condition ----------------------------------------------------

def _lowest_part_ratio(f):
    """For rational f: lowest z-order and part of f(xz, yz).

    f(xz, yz) = z^k * (P_a / Q_b) * (1 + O(z)) with homogeneous P_a, Q_b.
    Returns (k, P_a, Q_b).
    """
    nparts = f.num.homogeneous_parts()
    dparts = f.den.homogeneous_parts()
    if not nparts:
        return (None, Poly.zero(2), Poly.const(2, 1))
    a = min(nparts)
    b = min(dparts)
    return (a - b, nparts[a], dparts[b])


def _coord_jets(f, K):
    """Exact z-expansion of f(xz, yz)/z to K terms for one coordinate.

    With f = a/b split into homogeneous parts a_i, b_i and m the lowest
    degree in b, the coefficient of z^(k-1) is
    (a_(m+k) - sum_(j<k) c_j b_(m+k-j)) / b_m.
    """
    nparts = f.num.homogeneous_parts()
    dparts = f.den.homogeneous_parts()
    if not nparts:
        raise IdenticallySingular("zero coordinate has no flow expansion")
    b = min(dparts)
    Db = RatFn(dparts[b])
    coeffs = []
    for k in range(1, K + 1):
        acc = RatFn(nparts.get(b + k, Poly.zero(2)))
        for j in range(1, k):
            acc = acc - coeffs[j - 1] * RatFn(dparts.get(b + k - j, Poly.zero(2)))
        coeffs.append(acc / Db)
    return coeffs


def check_boundary(f):
    """True iff lim_{z->0} phi(xz, yz)/z = (x, y), by exact expansion."""
    x = Poly.var(0, 2)
    y = Poly.var(1, 2)
    for coord, lin in ((f.u, x), (f.v, y)):
        k, p, q = _lowest_part_ratio(coord)
        if k is None or k != 1:
            return False
        if p != lin * q:
            return False
    return True


# -- translation equation --------------------------------------------------

def _poly_scale_z(p):
    """Bivariate p(x, y) -> trivariate p(xz, yz)."""
    terms = {}
    for (i, j), c in p.terms.items():
        terms[(i, j, i + j)] = c
    return Poly(3, terms)


def _poly_to3(p):
    return Poly(3, {(i, j, 0): c for (i, j), c in p.terms.items()})


def _pair_normalize(num, den):
    """Cheap normalization of an unreduced trivariate pair."""
    if num.is_zero():
        return num, Poly.const(3, 1)
    mn = num.monomial_content()
    md = den.monomial_content()
    common = tuple(min(a, b) for a, b in zip(mn, md))
    if any(common):
        num = num.strip_monomial(common)
        den = den.strip_monomial(common)
    c = den.content()
    if den.leading_coeff() < 0:
        c = -c
    if c != 1:
        num = num * (1 / c)
        den = den * (1 / c)
    return num, den


def _compose3(f, A, B, C):
    """Trivariate pair for f(A/C, B/C) with bivariate rational f."""
    nn = f.num.eval_hom([A, B], C)
    dd = f.den.eval_hom([A, B], C)
    dN = f.num.total_degree()
    dD = f.den.total_degree()
    if dN > dD:
        dd = dd * C ** (dN - dD)
    elif dD > dN:
        nn = nn * C ** (dD - dN)
    return _pair_normalize(nn, dd)


def _sample_check(f, trials=6, seed=20240814):
    """Fast numeric pre-check of the translation equation on random points."""
    rng = random.Random(seed)
    hits = 0
    for _ in range(200):
        if hits >= trials:
            return True
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        y0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        z0 = Fraction(rng.randint(1, 9), rng.randint(10, 23))
        try:
            u1 = f.u.eval((x0 * z0, y0 * z0))
            v1 = f.v.eval((x0 * z0, y0 * z0))
            s = (1 - z0) / z0
            lhs_u = (1 - z0) * f.u.eval((x0, y0))
            lhs_v = (1 - z0) * f.v.eval((x0, y0))
            rhs_u = f.u.eval((u1 * s, v1 * s))
            rhs_v = f.v.eval((u1 * s, v1 * s))
        except ZeroDivisionError:
            continue
        if lhs_u != rhs_u or lhs_v != rhs_v:
            return False
        hits += 1
    return True


def _verify_compose(f):
    """The translation equation by composing phi with itself in three
    variables: a numeric pre-check on sample points, then exact equality of
    the two sides as trivariate fractions."""
    if not _sample_check(f):
        return False
    z = Poly.var(2, 3)
    one = Poly.const(3, 1)
    # phi(xz, yz) as unreduced trivariate pairs
    n1, d1 = _pair_normalize(_poly_scale_z(f.u.num), _poly_scale_z(f.u.den))
    n2, d2 = _pair_normalize(_poly_scale_z(f.v.num), _poly_scale_z(f.v.den))
    if d1.is_zero() or d2.is_zero():
        raise IdenticallySingular("inner substitution degenerates")
    # arguments X = n1 (1-z) / (z d1), Y = n2 (1-z) / (z d2); common denominator
    omz = one - z
    A = n1 * omz * d2
    B = n2 * omz * d1
    C = z * d1 * d2
    for coord in (f.u, f.v):
        rn, rd = _compose3(coord, A, B, C)
        if rd.is_zero():
            raise IdenticallySingular("outer substitution degenerates")
        ln = _poly_to3(coord.num) * omz
        ld = _poly_to3(coord.den)
        if ln * rd != rn * ld:
            return False
    return True


def verify_translation(f):
    """Exact check of (1-z) phi(x, y) = phi(phi(xz, yz) (1-z)/z).

    The zero map fails.  A map that satisfies the boundary condition
    lim phi(xz, yz)/z = (x, y) satisfies the translation equation iff it
    satisfies the PDE system, so ``verify_pde`` decides it.  Any other map
    (the degenerate solutions R*A/(cR+1) and non-flows) is decided by
    composing phi with itself in three variables.
    """
    if f.u.is_zero() and f.v.is_zero():
        return False  # the zero map trivially fails the boundary-normalized form
    if check_boundary(f):
        return verify_pde(f)
    return _verify_compose(f)


# -- vector field ----------------------------------------------------------

def _first_derivatives(f):
    """Polynomial numerators of the first derivatives of u = a/b, v = c/d.

    u_x = UX/b^2, u_y = UY/b^2, v_x = VX/d^2, v_y = VY/d^2; over b^2 d^2,
    E is the numerator of v u_y - u v_y, F that of u v_x - v u_x and J that
    of the Jacobian.  Returns (UX, UY, VX, VY, E, F, J).
    """
    a, b = f.u.num, f.u.den
    c, d = f.v.num, f.v.den
    UX = a.derivative(0) * b - a * b.derivative(0)
    UY = a.derivative(1) * b - a * b.derivative(1)
    VX = c.derivative(0) * d - c * d.derivative(0)
    VY = c.derivative(1) * d - c * d.derivative(1)
    E = c * UY * d - a * VY * b
    F = a * VX * b - c * UX * d
    J = UX * VY - UY * VX
    return UX, UY, VX, VY, E, F, J


def vector_field(f):
    """The vector field (w, r) = d/dz [phi(xz, yz)/z] at z = 0.

    A map that satisfies the boundary condition has (w, r) as the second
    jet of its z-expansion, (a_(m+2) - x b_(m+1))/b_m per coordinate
    (``_coord_jets``); on a map that is not a flow this is its tangent
    field at z = 0.  Any other map goes through ``_jacobian_field``.
    """
    if check_boundary(f):
        return VectorField(_coord_jets(f.u, 2)[1], _coord_jets(f.v, 2)[1])
    return _jacobian_field(f)


def _jacobian_field(f):
    """(w, r) = ((v u_y - u v_y)/J + x, (u v_x - v u_x)/J + y).

    Works on polynomial numerators throughout: with u = a/b, v = c/d the
    shared denominator b^2 d^2 of the derivative combinations and of J
    cancels, leaving a single reduction per coordinate.
    """
    E, F, Jn = _first_derivatives(f)[4:]
    if Jn.is_zero():
        raise DegenerateJacobian("Jacobian vanishes identically")
    x = Poly.var(0, 2)
    y = Poly.var(1, 2)
    w = RatFn(E + x * Jn, Jn)
    r = RatFn(F + y * Jn, Jn)
    return VectorField(w, r)


def verify_pde(f):
    """The second-order PDE system equivalent to the translation equation
    (given the boundary condition).

    Works entirely with polynomial numerators over the common denominator
    to avoid expensive rational-function reduction.
    """
    a, b = f.u.num, f.u.den
    c, d = f.v.num, f.v.den
    x = Poly.var(0, 2)
    y = Poly.var(1, 2)
    UX, UY, VX, VY, E, F, J = _first_derivatives(f)
    for num, den, WX, WY in ((a, b, UX, UY), (c, d, VX, VY)):
        # second-derivative numerators over den^3
        XX = WX.derivative(0) * den - 2 * WX * den.derivative(0)
        XY = WX.derivative(1) * den - 2 * WX * den.derivative(1)
        YY = WY.derivative(1) * den - 2 * WY * den.derivative(1)
        lhs = (x * XX + y * XY) * E + (y * YY + x * XY) * F
        rhs = 2 * (num * den - x * WX - y * WY) * J * den
        if lhs != rhs:
            return False
    return True


# -- level -----------------------------------------------------------------

def _linear_form_pair(ratio):
    """Write a reduced 0-homogenic ratio as (a x + b y)/(c x + d y).

    Returns (a, b, c, d) or None when impossible.
    """
    n, d = ratio.num, ratio.den
    dn = n.total_degree()
    dd = d.total_degree()
    if dn == 0 and dd == 0:
        # constant k: (k x)/(x) representation
        k = ratio.constant_value()
        return (k, Fraction(0), Fraction(1), Fraction(0))
    if dn == 1 and dd == 1:
        a = n.terms.get((1, 0), Fraction(0))
        b = n.terms.get((0, 1), Fraction(0))
        c = d.terms.get((1, 0), Fraction(0))
        dd_ = d.terms.get((0, 1), Fraction(0))
        return (a, b, c, dd_)
    return None


def _exact_isqrt(fr):
    """Integer n >= 0 with n^2 == fr, or None."""
    if fr < 0 or fr.denominator != 1:
        return None
    from math import isqrt
    n = isqrt(fr.numerator)
    return n if n * n == fr.numerator else None


def level_of(vf):
    """Level criterion on the vector field."""
    x, y = _rx(), _ry()
    S = y * vf.w - x * vf.r
    if S.is_zero():
        return LevelResult.level(0)
    Sx = y * vf.w.derivative(0) - x * vf.r.derivative(0)
    Sy = y * vf.w.derivative(1) - x * vf.r.derivative(1)
    if Sx.is_zero() or Sy.is_zero():
        return LevelResult.level(1)
    ratio = Sy / Sx
    lf = _linear_form_pair(ratio)
    if lf is None:
        return LevelResult.indeterminate()
    a, b, c, d = lf
    if a == d:
        # every linear-form representation has a = d; not a flow field
        return LevelResult.indeterminate()
    value = ((a + d) ** 2 - 4 * b * c) / (a - d) ** 2
    n = _exact_isqrt(value)
    if n is None or n == 0:
        return LevelResult.non_integer_square(value)
    return LevelResult.level(n)


# -- zeros-poles census ----------------------------------------------------

def zeros_poles(vf):
    """Real projective zeros and poles of the vector field, with multiplicity."""
    if vf.w.is_zero() and vf.r.is_zero():
        return (0, 0)
    den = poly_lcm(vf.w.den, vf.r.den)
    n1 = vf.w.num * divexact(den, vf.w.den)
    n2 = vf.r.num * divexact(den, vf.r.den)
    if n1.is_zero():
        g = n2.unit_normal()
    elif n2.is_zero():
        g = n1.unit_normal()
    else:
        g = poly_gcd(n1, n2)
    zeros = count_real_projective_roots(g) if not g.is_constant() else 0
    poles = count_real_projective_roots(den) if not den.is_constant() else 0
    return (zeros, poles)


# -- symmetry and the level-0 group ---------------------------------------

def is_i0_symmetric(f):
    """True iff v(x, y) = u(y, x)."""
    swapped = f.u.subs([_ry(), _rx()])
    return f.v == swapped


def level0_J(f):
    """Recover the 1-homogenic J with f = x/(1-J), y/(1-J); raises otherwise."""
    x, y = _rx(), _ry()
    if f.u.is_zero() or f.v.is_zero():
        raise NotLevel0Form("coordinate vanishes")
    J = 1 - x / f.u
    if not (1 - y / f.v == J):
        raise NotLevel0Form("coordinates disagree")
    if not J.is_zero() and J.homogeneity_degree() != 1:
        raise NotLevel0Form("J not 1-homogenic")
    return J


def level0_flow(J):
    """The level-0 flow x/(1-J), y/(1-J)."""
    x, y = _rx(), _ry()
    if not J.is_zero() and J.homogeneity_degree() != 1:
        raise NotLevel0Form("J not 1-homogenic")
    return Flow(x / (1 - J), y / (1 - J))


def compose_flows_level0(f1, f2):
    """Composition of level-0 flows adds their J parameters."""
    return level0_flow(level0_J(f1) + level0_J(f2))
