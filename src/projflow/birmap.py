"""The group of 1-homogenic birational plane maps (P, Q; L).

An element acts as x -> L(x) * (P/Q)(L(x)), i.e. the linear change first,
then the radial map (xP/Q, yP/Q).  The stored triple is normalized so that
structural equality coincides with equality of maps.
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import (
    AlgebraError,
    LinearMap2,
    Poly,
    RatFn,
    divexact,
    poly_gcd,
)
from .flowcore import Flow, VectorField


class HomBir:
    """Normalized triple (P, Q; L) of a 1-homogenic birational map."""

    __slots__ = ("P", "Q", "L")

    def __init__(self, P, Q, L=None, _normalized=False):
        if L is None:
            L = LinearMap2.identity()
        if isinstance(P, int):
            P = Poly.const(2, P)
        if isinstance(Q, int):
            Q = Poly.const(2, Q)
        if P.is_zero() or Q.is_zero():
            raise AlgebraError("P and Q must be nonzero")
        if not (P.is_homogeneous() and Q.is_homogeneous()):
            raise AlgebraError("P and Q must be homogeneous")
        if P.total_degree() != Q.total_degree():
            raise AlgebraError("P and Q must have equal degree")
        if not _normalized:
            P, Q, L = _normalize_triple(P, Q, L)
        self.P = P
        self.Q = Q
        self.L = L

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls):
        one = Poly.const(2, 1)
        return cls(one, one, LinearMap2.identity())

    @classmethod
    def linear(cls, L):
        one = Poly.const(2, 1)
        return cls(one, one, L)

    @classmethod
    def radial(cls, P, Q):
        return cls(P, Q, LinearMap2.identity())

    @classmethod
    def from_A(cls, A):
        """Radial map xA, yA for a 0-homogenic rational A."""
        if A.homogeneity_degree() != 0:
            raise AlgebraError("A must be 0-homogenic")
        return cls(A.num, A.den, LinearMap2.identity())

    @classmethod
    def involution_i(cls):
        """The standard involution y^2/x, y (swap then radial x/y)."""
        return cls(Poly.var(0, 2), Poly.var(1, 2), LinearMap2.swap())

    def degree(self):
        return self.P.total_degree()

    def A(self):
        """The 0-homogenic radial multiplier P/Q."""
        return RatFn(self.P, self.Q)

    def is_identity(self):
        return self.P == self.Q and self.L.is_identity()

    # -- group structure -------------------------------------------------
    def compose(self, other):
        """self after other (map composition self o other)."""
        li = self.L.inverse()
        lx, ly = li.coord_polys()
        P2 = other.P.subs_polys([lx, ly])
        Q2 = other.Q.subs_polys([lx, ly])
        return HomBir(self.P * P2, self.Q * Q2, self.L.compose(other.L))

    def inverse(self):
        lx, ly = self.L.coord_polys()
        return HomBir(self.Q.subs_polys([lx, ly]),
                      self.P.subs_polys([lx, ly]),
                      self.L.inverse())

    # -- action ----------------------------------------------------------
    def apply(self, pair):
        """Apply the map to a pair of rational functions (coordinates)."""
        p1, p2 = pair
        if isinstance(p1, Poly):
            p1 = RatFn(p1)
        if isinstance(p2, Poly):
            p2 = RatFn(p2)
        m1 = p1 * self.L.a + p2 * self.L.b
        m2 = p1 * self.L.c + p2 * self.L.d
        t = RatFn(self.P, self.Q).subs([m1, m2])
        return (m1 * t, m2 * t)

    def coords(self):
        """Coordinate functions of the map."""
        return self.apply((RatFn.var(0, 2), RatFn.var(1, 2)))

    def __eq__(self, other):
        if not isinstance(other, HomBir):
            return NotImplemented
        return self.P == other.P and self.Q == other.Q and self.L == other.L

    def __hash__(self):
        return hash((self.P, self.Q, self.L))

    def __repr__(self):
        return "HomBir(P=%s, Q=%s, L=%r)" % (
            self.P.to_string(), self.Q.to_string(), self.L)


def _normalize_triple(P, Q, L):
    g = poly_gcd(P, Q)
    if not (g.is_constant() and g.constant_value() == 1):
        P = divexact(P, g)
        Q = divexact(Q, g)
    # normalize L to primitive integer entries, first nonzero positive;
    # replacing L by sL requires Q -> sQ to keep the same map
    entries = (L.a, L.b, L.c, L.d)
    from math import gcd as _igcd
    num = 0
    den = 1
    for e in entries:
        num = _igcd(num, e.numerator)
        den = den * e.denominator // _igcd(den, e.denominator)
    scale = Fraction(den, num)  # L * scale is primitive integer
    first = next(e for e in entries if e != 0)
    if first * scale < 0:
        scale = -scale
    if scale != 1:
        L = L * scale
        Q = Q * scale
    # joint content normalization of the pair, sign fixed by P's leading
    cp = P.content()
    cq = Q.content()
    from math import gcd as _igcd2
    num = _igcd2(cp.numerator, cq.numerator)
    den = cp.denominator * cq.denominator // _igcd2(cp.denominator, cq.denominator)
    c = Fraction(num, den)
    if P.leading_coeff() < 0:
        c = -c
    if c != 1:
        P = P * (1 / c)
        Q = Q * (1 / c)
    return P, Q, L


# -- conjugation actions ---------------------------------------------------

def conjugate_flow(f, a):
    """a^{-1} o f o a, reduced."""
    ax, ay = a.coords()
    fu = f.u.subs([ax, ay])
    fv = f.v.subs([ax, ay])
    bx, by = a.inverse().coords()
    return Flow(bx.subs([fu, fv]), by.subs([fu, fv]))


def conjugate_vf_linear(vf, L):
    """Vector field of L^{-1} o phi o L."""
    lx, ly = L.coord_ratfns()
    wl = vf.w.subs([lx, ly])
    rl = vf.r.subs([lx, ly])
    li = L.inverse()
    return VectorField(wl * li.a + rl * li.b, wl * li.c + rl * li.d)


def conjugate_vf_radial(vf, A):
    """Vector field of ell_{P,Q}^{-1} o phi o ell_{P,Q} with A = P/Q."""
    if isinstance(A, Poly):
        A = RatFn(A)
    if not A.is_zero() and A.homogeneity_degree() != 0:
        raise AlgebraError("A must be 0-homogenic")
    x, y = RatFn.var(0, 2), RatFn.var(1, 2)
    s = x * vf.r - y * vf.w
    w2 = A * vf.w - A.derivative(1) * s
    r2 = A * vf.r + A.derivative(0) * s
    return VectorField(w2, r2)


def conjugate_vf(vf, a):
    """Vector field of a^{-1} o phi o a for a full (P, Q; L) element."""
    out = conjugate_vf_radial(vf, a.A())
    if not a.L.is_identity():
        out = conjugate_vf_linear(out, a.L)
    return out


# -- involutions -----------------------------------------------------------

class InvolutionClass:
    TAGS = ("IPlusPlus", "IPlusMinus", "IMinusPlus", "IMinusMinus",
            "NotInvolution")

    def __init__(self, tag):
        if tag not in self.TAGS:
            raise ValueError(tag)
        self.tag = tag

    def __eq__(self, other):
        if isinstance(other, str):
            return self.tag == other
        if isinstance(other, InvolutionClass):
            return self.tag == other.tag
        return NotImplemented

    def __repr__(self):
        return self.tag


def classify_involution(a):
    """Involution taxonomy: L^2 = +/- id crossed with Q = +/- P o L."""
    if not a.compose(a).is_identity():
        return InvolutionClass("NotInvolution")
    lam = a.L.compose(a.L).scalar_multiple_of_identity()
    if lam is None or lam == 0:
        return InvolutionClass("NotInvolution")
    plus = lam > 0
    lx, ly = a.L.coord_polys()
    PL = a.P.subs_polys([lx, ly])
    # Q must be a scalar multiple of P o L; determine the sign
    if PL.is_zero():
        return InvolutionClass("NotInvolution")
    ratio = None
    lt_e, lt_c = PL.leading_term()
    qc = a.Q.terms.get(lt_e)
    if qc is None:
        return InvolutionClass("NotInvolution")
    ratio = qc / lt_c
    if a.Q != PL * ratio:
        return InvolutionClass("NotInvolution")
    sign_plus = ratio > 0
    if plus:
        return InvolutionClass("IPlusPlus" if sign_plus else "IPlusMinus")
    if a.degree() % 2 == 0:
        return InvolutionClass("NotInvolution")
    return InvolutionClass("IMinusPlus" if sign_plus else "IMinusMinus")
