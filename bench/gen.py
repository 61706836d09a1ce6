"""Seeded inputs and their references, computed with sympy and the standard
library only.

Nothing in this module imports projflow, so no input and no reference here
can move when the code under test changes.  Rational functions live in
sympy's sparse field QQ(x, y); maps are pairs of field elements.  Inputs are
handed over as (num, den) term dictionaries {(i, j): Fraction} already in
projflow's RatFn normal form: coprime, den with primitive integer
coefficients and a positive graded-lex leading coefficient.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)
from sympy.polys.domains import QQ
from sympy.polys.fields import field

K, X, Y = field("x,y", QQ)
R = K.ring
_SYMS = {str(s): s for s in K.symbols}
_TRANSFORMS = standard_transformations + (convert_xor,)


def parse(text):
    """A rational expression in x, y (``^`` or ``**`` for powers) in K."""
    return K.from_expr(parse_expr(text, local_dict=dict(_SYMS),
                                  transformations=_TRANSFORMS))


def parse_pair(text):
    """``u = ...; v = ...`` or ``(w, r)`` into a pair of field elements."""
    text = text.strip()
    if text.startswith("("):
        depth = 0
        for i, ch in enumerate(text):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 1:
                return parse(text[1:i]), parse(text[i + 1:-1])
        raise ValueError("not a vector field: %r" % text)
    u, v = (part.split("=", 1)[1] for part in text.split(";"))
    return parse(u), parse(v)


# -- hand-over format ----------------------------------------------------

def _terms(p):
    return {m: Fraction(int(c.numerator), int(c.denominator))
            for m, c in p.terms()}


def _grlex_lead(terms):
    return terms[max(terms, key=lambda e: (sum(e), e))]


def normal_pair(f):
    """(num, den) term dictionaries of f in projflow's RatFn normal form."""
    num, den = _terms(f.numer), _terms(f.denom)
    top, bottom = 0, 1
    for c in den.values():
        top = gcd(top, c.numerator)
        bottom = bottom * c.denominator // gcd(bottom, c.denominator)
    scale = Fraction(top, bottom)
    if _grlex_lead(den) < 0:
        scale = -scale
    return ({e: c / scale for e, c in num.items()},
            {e: c / scale for e, c in den.items()})


# -- composition in QQ(x, y) -----------------------------------------------

def _eval_poly(p, g):
    """p(g1, g2) as (numerator, denominator) ring elements, uncancelled."""
    (a1, c1), (a2, c2) = ((gi.numer, gi.denom) for gi in g)
    m, n = p.degree(0), p.degree(1)
    pw = [[R.one], [R.one], [R.one], [R.one]]

    def power(k, base, e):
        while len(pw[k]) <= e:
            pw[k].append(pw[k][-1] * base)
        return pw[k][e]

    acc = R.zero
    for (i, j), c in p.terms():
        acc += (power(0, a1, i) * power(1, c1, m - i)
                * power(2, a2, j) * power(3, c2, n - j)) * c
    return acc, power(1, c1, m) * power(3, c2, n)


def _at_uncancelled(f, g):
    nn, nd = _eval_poly(f.numer, g)
    dn, dd = _eval_poly(f.denom, g)
    if not dn:
        raise ZeroDivisionError("composition lands on a pole")
    return nn * dd, nd * dn


def at(f, g):
    """The rational function f evaluated at the pair g of field elements."""
    return K.new(*_at_uncancelled(f, g))


def compose(F, G):
    """F o G for pairs of field elements."""
    return (at(F[0], G), at(F[1], G))


def phi(N):
    """The canonical level-N flow: x (y+1)^(N-1), y/(y+1)."""
    u = X * (Y + 1) ** (N - 1) if N >= 1 else X / (Y + 1) ** (1 - N)
    return (u, Y / (Y + 1))


def hombir(A, L):
    """The map x -> L(x) A(L(x)) for a 0-homogeneous A = P/Q, as a pair."""
    a, b, c, d = L
    l1, l2 = a * X + b * Y, c * X + d * Y
    A = at(A, (l1, l2))
    return (l1 * A, l2 * A)


def _hom_at(P, f1, f2):
    """Numerator of P(n1/d1, n2/d2) over d1^k d2^k for P homogeneous of
    degree k."""
    (n1, d1), (n2, d2) = f1, f2
    k = max(i + j for i, j in P.monoms())
    return sum((n1 ** i * d1 ** (k - i) * n2 ** j * d2 ** (k - j) * c
                for (i, j), c in P.terms()), R.zero)


def conjugate_phi(N, P, Q, L):
    """a^-1 o phi_N o a for a = (P, Q; L), as a pair of field elements.

    Works on uncancelled (numerator, denominator) ring pairs and cancels once
    per coordinate at the end; cancelling each intermediate field element
    costs far more on degree-2 and degree-3 maps.
    """
    a, b, c, d = L
    x, y = R.gens
    l1, l2 = a * x + b * y, c * x + d * y
    pa = _hom_at(P, (l1, R.one), (l2, R.one))
    qa = _hom_at(Q, (l1, R.one), (l2, R.one))
    tp1 = l2 * pa + qa                       # (t + 1) * qa with t = l2 pa/qa
    if N >= 1:
        f1 = (l1 * pa * tp1 ** (N - 1), qa ** N)
    else:
        f1 = (l1 * pa * qa ** -N, tp1 ** (1 - N))
    f2 = (l2 * pa, tp1)
    qh, ph = _hom_at(Q, f1, f2), _hom_at(P, f1, f2)
    den = f1[1] * f2[1] * ph * (a * d - b * c)
    s1, s2 = f1[0] * f2[1], f2[0] * f1[1]
    return (K.new((d * s1 - b * s2) * qh, den),
            K.new((a * s2 - c * s1) * qh, den))


def ring_poly(terms):
    """A ring element from a term dictionary."""
    return R.from_dict({e: QQ(c.numerator, c.denominator)
                        for e, c in terms.items()})


def certificate_holds(flow, level, A, L):
    """True iff ell = (A; L) conjugates ``flow`` to phi_level, checked as
    flow o ell == ell o phi_level, which needs no inverse.  The large side is
    compared by cross-multiplication: cancelling it would cost a gcd far
    larger than the products."""
    ell = hombir(A, L)
    for lhs, rhs in zip(flow, compose(ell, phi(level))):
        num, den = _at_uncancelled(lhs, ell)
        if num * rhs.denom != rhs.numer * den:
            return False
    return True


def proportional(f, g):
    """True iff f / g is a nonzero constant."""
    if not f or not g:
        return False
    q = f / g
    return q.numer.is_ground and q.denom.is_ground


# -- Taylor jets of a flow ---------------------------------------------------

def flow_jets(f, order):
    """Coefficients of z^0 .. z^(order-1) in f(xz, yz)/z, as field elements.

    Splits numerator and denominator into homogeneous parts and divides the
    two power series in z, which is a Taylor expansion at z = 0.
    """
    def parts(p):
        out = {}
        for (i, j), c in p.terms():
            out[i + j] = out.get(i + j, R.zero) + R({(i, j): c})
        return out

    nparts, dparts = parts(f.numer), parts(f.denom)
    low = min(dparts)
    d0 = K.new(dparts[low])
    jets = []
    for k in range(1, order + 1):
        acc = K.new(nparts.get(low + k, R.zero))
        for j in range(1, k):
            if low + k - j in dparts:
                acc -= jets[j - 1] * K.new(dparts[low + k - j])
        jets.append(acc / d0)
    return jets


def field_jets(w, r, order):
    """The jets of the flow of the polynomial field (w, r) by the Lie series
    u_(i+1) = (u_i,x w + u_i,y r) / i, computed in QQ[x, y]."""
    out = []
    for start in (R.gens[0], R.gens[1]):
        jets = [start]
        for i in range(1, order):
            prev = jets[-1]
            jets.append((prev.diff(R.gens[0]) * w + prev.diff(R.gens[1]) * r)
                        * QQ(1, i))
        out.append(jets)
    return out


# -- translation equation at a point ----------------------------------------

def translation_residual(u, v, x0, y0, z0):
    """(1-z) phi(x, y) - phi(phi(xz, yz) (1-z)/z) at one exact point, or
    None when a pole is hit."""
    def ev(f, p, q):
        d = f.denom(p, q)
        if d == 0:
            raise ZeroDivisionError
        return f.numer(p, q) / d

    try:
        s = (1 - z0) / z0
        u1, v1 = ev(u, x0 * z0, y0 * z0) * s, ev(v, x0 * z0, y0 * z0) * s
        return ((1 - z0) * ev(u, x0, y0) - ev(u, u1, v1),
                (1 - z0) * ev(v, x0, y0) - ev(v, u1, v1))
    except ZeroDivisionError:
        return None


def is_flow_at_points(u, v, rng, hits=3):
    """Exact necessary test of the translation equation at random points.

    Returns False on the first nonzero residual, True after ``hits`` points
    with zero residual.
    """
    for _ in range(200):
        pt = (QQ(rng.randint(-9, 9), rng.randint(1, 7)),
              QQ(rng.randint(-9, 9), rng.randint(1, 7)),
              QQ(rng.randint(1, 9), rng.randint(10, 23)))
        res = translation_residual(u, v, *pt)
        if res is None:
            continue
        if res != (0, 0):
            return False
        hits -= 1
        if hits == 0:
            return True
    raise ValueError("no regular sample point found")
