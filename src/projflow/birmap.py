"""The group of 1-homogenic birational plane maps (P, Q; L).

An element acts as x -> L(x) * (P/Q)(L(x)), i.e. the linear change first,
then the radial map (xP/Q, yP/Q).  The stored triple is normalized so that
structural equality coincides with equality of maps.  The constructor and
``compose`` divide P and Q by their gcd; ``from_A`` and the closed-form
moves ``compose_linear`` and ``compose_involution``, which the canonical
chain of ``classify`` takes, start from coprime P and Q and only rescale.

Every action ends in one radial step; ``apply`` divides out the factors it
knows (``algebra._divide_known``) and then reduces what is left once.
``push_forward_phi`` builds ell o phi_N o ell^{-1} in closed form from
ell's terms and T = P + Q * l_y, with Q divided out of its denominator, so
the conjugation certificate of ``classify.canonicalize`` substitutes into
neither f nor phi_N.
``conjugate_flow`` applies a^{-1} to the pullback f o a, from which
``pullback_pair`` divides out P o L and Q o L.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import (
    AlgebraError,
    IdenticallySingular,
    LinearMap2,
    Poly,
    RatFn,
    _divide_known,
    _quotient,
    divexact,
    poly_dot,
    poly_gcd,
)
from .flowcore import Flow, VectorField


class HomBir:
    """Normalized triple (P, Q; L) of a 1-homogenic birational map."""

    __slots__ = ("P", "Q", "L")

    def __init__(self, P, Q, L=None):
        if L is None:
            L = LinearMap2.identity()
        P, Q = (Poly.const(2, c) if isinstance(c, (int, Fraction)) else c
                for c in (P, Q))
        if P.is_zero() or Q.is_zero():
            raise AlgebraError("P and Q must be nonzero")
        if not (P.is_homogeneous() and Q.is_homogeneous()):
            raise AlgebraError("P and Q must be homogeneous")
        if P.total_degree() != Q.total_degree():
            raise AlgebraError("P and Q must have equal degree")
        self.P, self.Q, self.L = _normalize_triple(P, Q, L)

    # -- constructors ---------------------------------------------------
    @classmethod
    def _coprime(cls, P, Q, L):
        """The map (P, Q; L) for coprime forms P and Q of one degree: only
        the scale of L and the joint content are normalized."""
        h = object.__new__(cls)
        h.P, h.Q, h.L = _rescale(P, Q, L)
        return h

    @classmethod
    def identity(cls):
        return cls(1, 1)

    @classmethod
    def linear(cls, L):
        return cls(1, 1, L)

    @classmethod
    def from_A(cls, A):
        """Radial map xA, yA for a 0-homogenic rational A, whose num and
        den are coprime by the invariant of ``RatFn``."""
        if A.homogeneity_degree() != 0:
            raise AlgebraError("A must be 0-homogenic")
        if A.is_zero():
            raise AlgebraError("P and Q must be nonzero")
        return cls._coprime(A.num, A.den, LinearMap2.identity())

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

    def compose_linear(self, M):
        """self o linear(M) for a LinearMap2 M, that is (P, Q; L M): the
        radial part P/Q is unchanged and follows L M."""
        return HomBir._coprime(self.P, self.Q, self.L.compose(M))

    def compose_involution(self):
        """self o involution_i(), that is (P l_x, Q l_y; L swap) as in
        ``compose``, with (l_x, l_y) = det(L) L^{-1}(x).  P and Q are coprime
        and l_x, l_y are independent linear forms, so the only common
        factors are l_y when it divides P and l_x when it divides Q, each
        at most once; each is tested by one exact division."""
        P, Q, L = self.P, self.Q, self.L
        x, y = Poly.var(0, 2), Poly.var(1, 2)
        lx, ly = x * L.d - y * L.b, y * L.a - x * L.c
        p, q = _quotient(P, ly), _quotient(Q, lx)
        P2 = (P if p is None else p) * (lx if q is None else 1)
        Q2 = (Q if q is None else q) * (ly if p is None else 1)
        return HomBir._coprime(P2, Q2, LinearMap2._of(L.b, L.a, L.d, L.c))

    def inverse(self):
        lx, ly = self.L.coord_polys()
        return HomBir(self.Q.subs_polys([lx, ly]),
                      self.P.subs_polys([lx, ly]),
                      self.L.inverse())

    # -- action ----------------------------------------------------------
    def apply(self, pair):
        """The map at a pair of rational functions, reduced; raises
        IdenticallySingular where the map is undefined.  Over one
        denominator E the pair is (M1, M2)/E after L, and the radial part
        gives (M1 P(M), M2 P(M)) / (E Q(M)), as the powers of E cancel in
        P/Q.  Its known factors E, Q and P are divided out before reducing."""
        (a1, b1), (a2, b2) = ((p.num, p.den) if isinstance(p, RatFn)
                              else (p, Poly.const(p.nvars, 1)) for p in pair)
        if b1 != b2:
            # over lcm(b1, b2), so that a shared factor is not squared in E
            g = poly_gcd(b1, b2)
            c1, c2 = divexact(b1, g), divexact(b2, g)
            a1, a2, b1 = a1 * c2, a2 * c1, b1 * c2
        L = self.L
        M = [a1 * L.a + a2 * L.b, a1 * L.c + a2 * L.d]
        PM = self.P.subs_polys(M)
        D = b1 * self.Q.subs_polys(M)
        if D.is_zero():
            raise IdenticallySingular("map undefined on the pair")
        N1, N2, D = _divide_known((M[0] * PM, M[1] * PM, D),
                                  (b1, self.Q, self.P))
        return RatFn(N1, D), RatFn(N2, D)

    def pullback_pair(self, r):
        """(N, D) with N/D = r o self: r at L(x) * T/C (T = P o L, C = Q o L)
        by ``RatFn.subs_pair``, divided by T and C while both are exact."""
        ls = self.L.coord_polys()
        T, C = self.P, self.Q
        if not self.L.is_identity():
            T, C = T.subs_polys(ls), C.subs_polys(ls)
        N, D = r.subs_pair([RatFn(l * T, C, reduce=False) for l in ls])
        return _divide_known((N, D), (T, C))

    def push_forward_phi(self, N):
        """(N1, N2, D) with (N1/D, N2/D) = self o phi_N o self^{-1}, not
        reduced.  With l = L^{-1}(x) and T = P + Q * l_y, phi_N(self^{-1}(x))
        = phi_N(l * Q/P) = (Q/P) * w for w = (l_x T^N, l_y P^N) / (P^(N-1) T)
        if N >= 1 and (l_x P^(1-N), l_y P T^(-N)) / T^(1-N) if N <= 0.  self
        is 1-homogenic, so the result is (Q/P) * self(w): with w = (a1, a2)/E
        and M = L(a1, a2), that is (M1 P(M), M2 P(M)) / (P E Q(M)/Q).

        Q divides Q(M): T = P + Q l_y is P mod Q, so (a1, a2) is P^k l mod
        Q (k = N if N >= 1, else 1 - N), M = L(a1, a2) is P^k x mod Q as
        L(l) = x, and Q(M) is Q(P^k x) = P^(k deg Q) Q mod Q, that is 0."""
        P, Q, L = self.P, self.Q, self.L
        lx, ly = L.inverse().coord_polys()
        T = P + Q * ly
        if N >= 1:
            a1, a2, E = lx * T ** N, ly * P ** N, P ** (N - 1) * T
        else:
            a1, a2, E = lx * P ** (1 - N), ly * P * T ** -N, T ** (1 - N)
        M = [a1 * L.a + a2 * L.b, a1 * L.c + a2 * L.d]
        PM = P.subs_polys(M)
        return M[0] * PM, M[1] * PM, P * E * divexact(Q.subs_polys(M), Q)

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
        P, Q = divexact(P, g), divexact(Q, g)
    return _rescale(P, Q, L)


def _rescale(P, Q, L):
    """The normalized triple of (P, Q; L) for coprime P and Q."""
    # normalize L to primitive integer entries, first nonzero positive;
    # replacing L by sL requires Q -> sQ to keep the same map
    entries = (L.a, L.b, L.c, L.d)
    # L * scale is primitive integer
    scale = Fraction(lcm(*(e.denominator for e in entries)),
                     gcd(*(e.numerator for e in entries)))
    first = next(e for e in entries if e != 0)
    if first * scale < 0:
        scale = -scale
    if scale != 1:
        L = L * scale
        Q = Q * scale
    # joint content normalization of the pair, sign fixed by P's leading
    cP, cQ = P.content(), Q.content()
    c = Fraction(gcd(cP.numerator, cQ.numerator),
                 lcm(cP.denominator, cQ.denominator))
    if P.leading_coeff() < 0:
        c = -c
    if c != 1:
        P, Q = P * (1 / c), Q * (1 / c)
    return P, Q, L


# -- conjugation actions ---------------------------------------------------

def conjugate_flow(f, a):
    """a^{-1} o f o a, reduced: a^{-1} applied to f o a (``pullback_pair``)."""
    return Flow(*a.inverse().apply([RatFn(*a.pullback_pair(c))
                                    for c in (f.u, f.v)]))


def conjugate_vf_linear(vf, L):
    """Vector field of L^{-1} o phi o L: (P, Q, D) o L, then L^{-1} on (P, Q)."""
    args = L.coord_polys()
    P, Q, D = (f.subs_polys(args) for f in (vf.P, vf.Q, vf.D))
    li = L.inverse()
    return VectorField.of(P * li.a + Q * li.b, P * li.c + Q * li.d, D)


def conjugate_vf_radial(vf, A):
    """Vector field of ell_{P,Q}^{-1} o phi o ell_{P,Q} with A = P/Q."""
    return VectorField.of(*_radial_field(vf, A))


def _radial_field(vf, A):
    """The unreduced numerators and denominator of ``conjugate_vf_radial``.

    The field is (A w - A_y s, A r + A_x s) with s = x r - y w; for A = a/b
    it has the numerators a b P - (a_y b - a b_y) S and
    a b Q + (a_x b - a b_x) S over b^2 D, where S = x Q - y P.
    """
    if isinstance(A, Poly):
        A = RatFn(A)
    if not A.is_zero() and A.homogeneity_degree() != 0:
        raise AlgebraError("A must be 0-homogenic")
    a, b = A.num, A.den
    P, Q, D = vf.P, vf.Q, vf.D
    S = Poly.var(0, 2) * Q - Poly.var(1, 2) * P
    ab = a * b
    Ax, Ay = (poly_dot([(a.derivative(i), b), (-a, b.derivative(i))])
              for i in (0, 1))
    return (poly_dot([(ab, P), (-Ay, S)]), poly_dot([(ab, Q), (Ax, S)]),
            b * b * D)


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
    PL = a.P.subs_polys(a.L.coord_polys())
    # Q must be a scalar multiple of P o L; determine the sign
    if PL.is_zero():
        return InvolutionClass("NotInvolution")
    lt_e, lt_c = PL.leading_term()
    ratio = a.Q.terms.get(lt_e, 0) / lt_c
    if a.Q != PL * ratio:
        return InvolutionClass("NotInvolution")
    sign_plus = ratio > 0
    if plus:
        return InvolutionClass("IPlusPlus" if sign_plus else "IPlusMinus")
    if a.degree() % 2 == 0:
        return InvolutionClass("NotInvolution")
    return InvolutionClass("IMinusPlus" if sign_plus else "IMinusMinus")
