"""Flows and vector fields: the jets of phi(xz, yz)/z, whose recurrence
decides the boundary condition; the translation equation (for a map with it
the first-order PDE Dphi (x - V) = phi on its jet field V, else its
degenerate form); level computation, zeros-poles census, symmetry.

A vector field is stored over one denominator, w = P/D and r = Q/D, in a
normal form (D unit-normal, gcd(P, Q, D) = 1).  Every operation on fields
computes on the polynomials P, Q and D and normalizes its result once, with
``VectorField.of``."""
from __future__ import annotations

from fractions import Fraction

from .algebra import (
    AlgebraError,
    IdenticallySingular,
    Poly,
    RatFn,
    count_real_projective_roots,
    poly_dot,
    poly_gcd,
    divexact,
    _quotient,
    _unit_den,
)


class DegenerateJacobian(AlgebraError):
    pass


class NotLevel0Form(AlgebraError):
    pass


class NotDegenerate(AlgebraError):
    pass


_X, _Y = Poly.var(0, 2), Poly.var(1, 2)
_ZERO, _ONE = Poly.zero(2), Poly.const(2, 1)
_RX, _RY = RatFn.var(0, 2), RatFn.var(1, 2)


class Flow:
    """A pair (u, v) of rational functions, a candidate projective flow."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        self.u, self.v = (RatFn(f) if isinstance(f, Poly) else f
                          for f in (u, v))

    @classmethod
    def identity(cls):
        return cls(_RX, _RY)

    def is_identity(self):
        return self.u == _RX and self.v == _RY

    def __eq__(self, other):
        if not isinstance(other, Flow):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return "Flow(%s, %s)" % (self.u.to_string(), self.v.to_string())


class VectorField:
    """The 2-homogenic pair (w, r) = d/dz [phi(xz, yz)/z] at z = 0.

    Stored over one denominator: w = P/D and r = Q/D, with D unit-normal and
    gcd(P, Q, D) = 1, so equal fields have equal (P, Q, D).  ``w`` and ``r``
    are reduced afresh on each read.
    """

    __slots__ = ("P", "Q", "D")

    def __init__(self, w, r):
        w, r = (RatFn(f) if isinstance(f, Poly) else f for f in (w, r))
        self._set(w.num * r.den, r.num * w.den, w.den * r.den)

    @classmethod
    def of(cls, P, Q, D):
        """The field (P/D, Q/D) for polynomials P, Q and D != 0."""
        vf = object.__new__(cls)
        vf._set(P, Q, D)
        return vf

    def _set(self, P, Q, D):
        if D.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        if P.is_zero() and Q.is_zero():
            D = Poly.const(D.nvars, 1)
        g = poly_gcd(poly_gcd(D, P), Q)
        if not g.is_constant():
            P, Q, D = divexact(P, g), divexact(Q, g), divexact(D, g)
        P, Q, D = _unit_den(P, Q, D)
        d = D.total_degree() + 2
        if not (D.is_homogeneous() and all(
                f.is_zero() or f.is_homogeneous() and f.total_degree() == d
                for f in (P, Q))):
            raise AlgebraError("vector field coordinates must be 2-homogenic")
        self.P, self.Q, self.D = P, Q, D

    @property
    def w(self):
        return RatFn(self.P, self.D)

    @property
    def r(self):
        return RatFn(self.Q, self.D)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.P == other.P and self.Q == other.Q and self.D == other.D

    def __hash__(self):
        return hash((self.P, self.Q, self.D))

    def __repr__(self):
        return "VectorField(%s, %s)" % (self.w.to_string(), self.r.to_string())


class LevelResult:
    """Tagged level outcome."""

    __slots__ = ("tag", "n", "value")

    def __init__(self, tag, n=None, value=None):
        # tag: Level | NonIntegerSquare | Indeterminate
        self.tag, self.n, self.value = tag, n, value

    @classmethod
    def level(cls, n):
        return cls("Level", n=n)

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


# -- boundary condition and jets ------------------------------------------

def _coord_jets(g, lin, K):
    """Exact z-expansion of g(xz, yz)/z to K >= 1 terms for a coordinate g
    with the boundary condition lim g(xz, yz)/z = lin (x or y), as
    numerators over powers of one polynomial: returns (nums, pows), the k-th
    jet being nums[k-1] / pows[k-1] with pows[k-1] = b_m^(k-1); None
    without it.

    With g = a/b split into homogeneous parts a_i, b_i and m the lowest
    degree in b, the condition is that a has no part below m + 1 and
    a_(m+1) = lin b_m.  The coefficient of z^(k-1) is then
    c_k = (a_(m+k) - sum_(j<k) c_j b_(m+k-j)) / b_m, c_1 = lin, and on the
    numerators N_k = c_k b_m^(k-1) the recurrence is
    N_k = a_(m+k) b_m^(k-2) - sum_(j<k) N_j E_(k-j) with
    E_i = b_(m+i) b_m^(i-1), which depends on i alone.  So each order forms
    one new E_i (none where b has no part of degree m + i, and E_1 = b_(m+1)
    with no product) and one power of b_m, and N_k is one ``poly_dot``.
    """
    nparts = g.num.homogeneous_parts()
    dparts = g.den.homogeneous_parts()
    m = min(dparts)
    bm = dparts[m]
    if min(nparts, default=m) != m + 1 or nparts[m + 1] != lin * bm:
        return None
    pows = [_ONE]  # pows[i] = b_m^i
    mE = {}  # mE[i] = -E_i, for the parts b_(m+i) that b has
    nums = [lin]
    for k in range(2, K + 1):
        part = dparts.get(m + k - 1)
        if part is not None:
            mE[k - 1] = -part * pows[k - 2]
        nums.append(poly_dot([(nparts.get(m + k, _ZERO), pows[k - 2])]
                             + [(nums[k - i - 1], e) for i, e in mE.items()]))
        pows.append(pows[-1] * bm)
    return nums, pows


def _flow_jets(f, K):
    """``_coord_jets`` of both coordinates, or None when f fails the
    boundary condition."""
    u = _coord_jets(f.u, _X, K)
    v = u and _coord_jets(f.v, _Y, K)
    return (u, v) if v else None


def check_boundary(f):
    """True iff lim_{z->0} phi(xz, yz)/z = (x, y), by ``_coord_jets``."""
    return _flow_jets(f, 1) is not None


def _jet_field(f):
    """Unreduced (P, Q, D) with (w, r) = (P/D, Q/D) the second jets
    (a_(m+2) - x b_(m+1))/b_m of f: over their common b_m when the two
    coordinates' b_m are equal, with no division; else over the larger b_m
    when one divides the other.  None when f fails the boundary
    condition."""
    jets = _flow_jets(f, 2)
    if jets is None:
        return None
    (u, (_, bu)), (v, (_, bv)) = jets
    if bu == bv:
        return u[1], v[1], bu
    if (h := _quotient(bv, bu)) is not None:
        return u[1] * h, v[1], bv
    if (h := _quotient(bu, bv)) is not None:
        return u[1], v[1] * h, bu
    return u[1] * bv, v[1] * bu, bu * bv


# -- translation equation --------------------------------------------------

def _identically_singular(f):
    """True iff phi(phi(xz, yz) (1-z)/z) is nowhere defined.  The inner
    argument ranges over the cone on phi's image, the plane unless phi maps
    into one line t (A, B); then iff some coordinate's denominator vanishes
    on that line, that is, each of its homogeneous parts is 0 at (A, B)."""
    if f.u.is_zero():
        line = (0, 1)
    elif f.v.is_zero():
        line = (1, 0)
    else:  # reduced v = k u has the denominator of u
        k = f.v.num.leading_coeff() / f.u.num.leading_coeff()
        if (f.v.num, f.v.den) != (f.u.num * k, f.u.den):
            return False
        line = (1, k)
    return any(all(p.eval(line) == 0 for p in c.den.homogeneous_parts().values())
               for c in (f.u, f.v))


def verify_translation(f):
    """Exact check of (1-z) phi(x, y) = phi(phi(xz, yz) (1-z)/z), decided
    by ``verify_pde``.  A rejected map for which the composition is nowhere
    defined raises IdenticallySingular."""
    if verify_pde(f):
        return True
    if _identically_singular(f):
        raise IdenticallySingular("substitution denominator vanishes")
    return False


def verify_pde(f):
    """The translation equation: Dphi (x - V) = phi (``_pde_holds``) on the
    jet field V of a map with the boundary condition (``_jet_field``).  By
    the paper's classification every solution failing it (the zero and
    singular flows) has the degenerate form of ``_degenerate_form``.

    A flow F(x, t) = phi(xt)/t has F_t = D_x F V (differentiate F(F(x, s), t)
    = F(x, s + t) at s = 0), the PDE at t = 1.  Conversely the PDE at xt and
    V 2-homogenic give F_t = D_x F V, with F(x, 0) = x: F is the flow of V.
    """
    field = _jet_field(f)
    if field is not None:
        return _pde_holds(f, *field)
    try:
        _degenerate_form(f)
    except NotDegenerate:
        return False
    return True


def _pde_holds(f, P, Q, D):
    """Dphi (x - V) = phi for V = (P/D, Q/D): with X = x D - P, Y = y D - Q,
    a coordinate n/d satisfies it iff d A == n B for A = X n_x + Y n_y - n D
    = D (x n_x + y n_y - n) - P n_x - Q n_y and B = X d_x + Y d_y, tested
    through the quotient h = B/d when it is exact (always, for a flow in
    lowest terms).  x n_x + y n_y + s n comes from Euler's identity
    (``Poly.euler``), so each side is one ``poly_dot`` of three products.
    B and h depend on d alone, so a second coordinate over the same d reuses
    them.  Both sides are linear in (P, Q, D) together, so every
    representative of the field gives the same answer."""
    mP, mQ = -P, -Q
    side = None  # (d, B, h) of the last denominator
    for g in (f.u, f.v):
        n, d = g.num, g.den
        if side is None or side[0] != d:
            B = poly_dot([(D, d.euler(0)), (mP, d.derivative(0)),
                          (mQ, d.derivative(1))])
            side = d, B, _quotient(B, d)
        _, B, h = side
        A = poly_dot([(D, n.euler(-1)), (mP, n.derivative(0)),
                      (mQ, n.derivative(1))])
        if not (A == n * h if h is not None else d * A == n * B):
            return False
    return True


# -- degenerate flows ------------------------------------------------------

def _split_inverse(coord):
    """For w = B R/(cR+1) != 0 return (c/B, B*R) from 1/w."""
    h = coord.reciprocal()
    n, d = h.num, h.den
    if n.total_degree() == d.total_degree():
        top = n.total_degree()
        tn, td = n.homogeneous_parts()[top], d.homogeneous_parts()[top]
        k = tn.leading_coeff() / td.leading_coeff()
        if tn != td * k:
            raise NotDegenerate("top-degree ratio is not constant")
        # gcd(n - k d, d) = gcd(n, d) = 1, and d is already normalized
        rest = RatFn(n - d * k, d, reduce=False)
    else:
        k = Fraction(0)
        rest = h
    if rest.is_zero() or rest.homogeneity_degree() != -1:
        raise NotDegenerate("no 1-homogenic core")
    return k, rest.reciprocal()


def _degenerate_form(f):
    """(R, c, A, B) with f = A R/(cR+1), B R/(cR+1), R 1-homogenic and
    R(A, B) = 1, for a map that fails the boundary condition; raises
    NotDegenerate when f has no such form."""
    if f.u.is_zero() and f.v.is_zero():
        return _RY, Fraction(0), Fraction(0), Fraction(0)
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
    rAB_n, rAB_d = R.num.eval((A, B)), R.den.eval((A, B))
    if rAB_d == 0 or rAB_n / rAB_d != 1:
        raise NotDegenerate("R(A, B) != 1")
    den = R * c + 1
    if Flow(R * A / den, R * B / den) != f:
        raise NotDegenerate("not of the degenerate product form")
    return R, c, A, B


# -- vector field ----------------------------------------------------------

def vector_field(f):
    """The vector field (w, r) = d/dz [phi(xz, yz)/z] at z = 0.

    A map that satisfies the boundary condition has (w, r) as the second
    jet of its z-expansion (``_jet_field``); on a map that is not a flow
    this is its tangent field at z = 0.  Any other map has no field and
    raises: DegenerateJacobian when its Jacobian vanishes identically, as
    it does for every flow failing the boundary condition (all of them are
    degenerate), else an AlgebraError naming the boundary condition.
    """
    field = _jet_field(f)
    if field is not None:
        return VectorField.of(*field)
    if _jacobian(f).is_zero():
        raise DegenerateJacobian("Jacobian vanishes identically")
    raise AlgebraError("no vector field: the map fails the boundary "
                       "condition lim phi(xz, yz)/z = (x, y)")


def _jacobian(f):
    """Numerator of the Jacobian determinant of (u, v) = (a/b, c/d):
    (a_x b - a b_x)(c_y d - c d_y) - (a_y b - a b_y)(c_x d - c d_x)."""
    a, b, c, d = f.u.num, f.u.den, f.v.num, f.v.den
    UX, UY = (poly_dot([(a.derivative(i), b), (-a, b.derivative(i))])
              for i in (0, 1))
    VX, VY = (poly_dot([(c.derivative(i), d), (-c, d.derivative(i))])
              for i in (0, 1))
    return poly_dot([(UX, VY), (-UY, VX)])


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


def exact_isqrt(fr):
    """Integer n >= 0 with n^2 == fr, or None."""
    if fr < 0 or fr.denominator != 1:
        return None
    from math import isqrt
    n = isqrt(fr.numerator)
    return n if n * n == fr.numerator else None


def level_of(vf):
    """Level criterion on the vector field, from S = y w - x r = T/D with
    T = y P - x Q.

    It reads the ratio of S_x = y w_x - x r_x and S_y = y w_y - x r_y, whose
    numerators over D^2 are D (y P_i - x Q_i) - D_i T.
    """
    P, Q, D = vf.P, vf.Q, vf.D
    T = _Y * P - _X * Q
    if T.is_zero():
        return LevelResult.level(0)
    yD, mxD = _Y * D, -_X * D
    Sx, Sy = (poly_dot([(yD, P.derivative(i)), (mxD, Q.derivative(i)),
                        (-D.derivative(i), T)]) for i in (0, 1))
    if Sx.is_zero() or Sy.is_zero():
        return LevelResult.level(1)
    ratio = RatFn(Sy, Sx)
    lf = _linear_form_pair(ratio)
    if lf is None:
        return LevelResult.indeterminate()
    a, b, c, d = lf
    if a == d:
        # every linear-form representation has a = d; not a flow field
        return LevelResult.indeterminate()
    value = ((a + d) ** 2 - 4 * b * c) / (a - d) ** 2
    n = exact_isqrt(value)
    if n is None or n == 0:
        return LevelResult.non_integer_square(value)
    return LevelResult.level(n)


# -- zeros-poles census ----------------------------------------------------

def zeros_poles(vf):
    """Real projective zeros and poles of the vector field, with multiplicity."""
    n1, n2, den = vf.P, vf.Q, vf.D
    if n1.is_zero() and n2.is_zero():
        return (0, 0)
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
    swapped = f.u.subs([_RY, _RX])
    return f.v == swapped


def level0_J(f):
    """Recover the 1-homogenic J with f = x/(1-J), y/(1-J); raises otherwise."""
    x, y = _RX, _RY
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
    x, y = _RX, _RY
    if not J.is_zero() and J.homogeneity_degree() != 1:
        raise NotLevel0Form("J not 1-homogenic")
    return Flow(x / (1 - J), y / (1 - J))


def compose_flows_level0(f1, f2):
    """Composition of level-0 flows adds their J parameters."""
    return level0_flow(level0_J(f1) + level0_J(f2))
