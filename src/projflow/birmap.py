"""The group of 1-homogenic birational plane maps (P, Q; L).

An element acts as x -> L(x) * (P/Q)(L(x)), i.e. the linear change first,
then the radial map (xP/Q, yP/Q).  The stored triple is normalized so that
structural equality coincides with equality of maps.  The constructor and
``compose`` divide P and Q by their gcd; ``from_A`` and the canonical chain
of ``classify``, whose moves (a linear change, ``_compose_involution``) keep
P and Q coprime, only rescale.

Every action ends in one radial step; ``apply`` divides out the factors it
knows (``algebra._divide_known``) and then reduces what is left once.
``push_forward_phi``, the certificate of ``classify.canonicalize``, is
ell o phi_N o ell^{-1} in closed form over ``linear_split``, in which every
known factor cancels as an exponent.  ``conjugate_flow`` applies a^{-1} to
the pullback f o a, from which ``pullback_pair`` divides out P o L, Q o L.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .algebra import (
    AlgebraError,
    IdenticallySingular,
    LinearMap2,
    Poly,
    RatFn,
    _divide_known,
    _form_list,
    _form_value,
    _list_poly,
    _multiplicity,
    _quotient,
    divexact,
    poly_dot,
    poly_gcd,
)
from .flowcore import Flow, VectorField


class HomBir:
    """Normalized triple (P, Q; L) of a 1-homogenic birational map."""

    __slots__ = ("P", "Q", "L", "_split")

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
        g = poly_gcd(P, Q)
        if not (g.is_constant() and g.constant_value() == 1):
            P, Q = divexact(P, g), divexact(Q, g)
        self.P, self.Q, self.L = _rescale(P, Q, L)
        self._split = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def _coprime(cls, P, Q, L):
        """The map (P, Q; L) for coprime forms P and Q of one degree: only
        the scale of L and the joint content are normalized."""
        h = object.__new__(cls)
        h.P, h.Q, h.L = _rescale(P, Q, L)
        h._split = None
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
        reduced.  With l = L^{-1}(x) and T = P + Q l_y, phi_N(self^{-1}(x))
        = phi_N(l Q/P) = (Q/P) (a1, a2)/E, with (a1, a2)/E = (l_x T^N, l_y
        P^N) / (P^(N-1) T) if N >= 1, else (l_x P^(1-N), l_y P T^(-N)) /
        T^(1-N).  So the map is (M1 P(M), M2 P(M)) / (P E Q(M)/Q), M = L(a).

        As L(l) = x, l_x(M) = a1 and l_y(M) = a2, so by ``linear_split``
        P(M) = a1^i a2^j P0(M), Q(M) = a1^i' a2^j' Q0(M), and T = l_y T0 if
        j > 0.  All else is a power product of l_x, l_y, P0, T0: the common
        power c of a1, a2 leaves M = c M', c^d cancels in P(M)/Q(M), the
        exponents cancel as integers, and only M', P0(M'), Q0(M')/Q0 and the
        powers left are multiplied out.  Q0 divides Q0(M'): the atoms are
        prime to Q0 and T = P mod Q0, so M = P^k x mod Q0."""
        P, Q, L = self.P, self.Q, self.L
        lx, ly, i, j, P0, i2, j2, Q0 = self.linear_split()
        T0, g = (Q + P0 * lx ** i * ly ** (j - 1), 1) if j else (P + Q * ly, 0)
        if N >= 1:
            A1, A2 = (1, g * N, 0, N), (i * N, 1 + j * N, N, 0)
            E = (i * (N - 1), j * (N - 1) + g, N - 1, 1)
        else:
            k = 1 - N
            A1, A2 = (1 + i * k, j * k, k, 0), (i, 1 + j - g * N, 1, -N)
            E = (0, g * k, 0, k)
        c = [min(e) for e in zip(A1, A2)]
        A1, A2 = ([e - f for e, f in zip(A, c)] for A in (A1, A2))
        # exponents in Q c P(M') / (P E Q(M')) but P0(M'), Q0(M')
        d = [e - f + (i - i2) * u + (j - j2) * v + w
             for e, f, u, v, w in zip(c, E, A1, A2, (i2 - i, j2 - j, -1, 0))]
        one, atoms = Poly.const(2, 1), (lx, ly, P0, T0)
        a1, a2, W, D = (prod((a if e == 1 else a ** e
                              for a, e in zip(atoms, es) if e), start=one)
                        for es in (A1, A2, [max(e, 0) for e in d],
                                   [max(-e, 0) for e in d]))
        M = [a1 * L.a + a2 * L.b, a1 * L.c + a2 * L.d]
        W = W * (P0 if P0.is_constant() else P0.subs_polys(M))
        if not Q0.is_constant():
            D = D * divexact(Q0.subs_polys(M), Q0)
        return M[0] * W, M[1] * W, D

    def linear_split(self):
        """(l_x, l_y, i, j, P0, i', j', Q0): (l_x, l_y) = L^{-1}(x) from the
        integer adjugate of L, P = l_x^i l_y^j P0 and Q = l_x^i' l_y^j' Q0;
        computed once."""
        if self._split is None:
            L = self.L
            a, b, c, d = (int(e) for e in (L.a, L.b, L.c, L.d))  # _rescale
            det = a * d - b * c
            rows = []
            for u in ([-b, d], [a, -c]):  # the lists of det l_x, det l_y
                g = gcd(*u) if det > 0 else -gcd(*u)
                rows.append(([v // g for v in u], det // g))
            out = []
            for F in (self.P, self.Q):
                for u, s in rows:  # F = (u/s)^e F0, on lists if F(root) = 0
                    e = 0
                    if not _form_value(F, u[0], -u[1])[0]:
                        w, q = _form_list(F)
                        e, w = _multiplicity(w, u)
                        F = _list_poly(w) * Fraction(s ** e, q)
                    out.append(e)
                out.append(F)
            self._split = (*(_list_poly(*r) for r in rows), *out)
        return self._split

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


def _compose_involution(P, Q, L):
    """(P l_x, Q l_y; L swap) = (P, Q; L) o involution_i() as in ``compose``,
    unnormalized, for (l_x, l_y) = det(L) L^{-1}(x).  As P and Q are coprime
    and l_x, l_y independent, the only common factors are l_y if it divides
    P and l_x if it divides Q, each once; one exact division tests each."""
    x, y = Poly.var(0, 2), Poly.var(1, 2)
    lx, ly = x * L.d - y * L.b, y * L.a - x * L.c
    p, q = _quotient(P, ly), _quotient(Q, lx)
    P2 = (P if p is None else p) * (lx if q is None else 1)
    Q2 = (Q if q is None else q) * (ly if p is None else 1)
    return P2, Q2, LinearMap2._of(L.b, L.a, L.d, L.c)


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
