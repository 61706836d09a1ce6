"""Rational solutions of first-order linear ODEs p f' + q f = r over Q(x).

Nonexistence is proved via pole-order (indicial) bounds at each irreducible
factor of the leading coefficient and a degree bound at infinity, then a
finite linear system; no sampling is involved.
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import (
    AlgebraError,
    NeedsRationalRoot,
    Poly,
    RatFn,
    VerificationFailed,
    divexact,
    factor_list_q,
    poly_gcd,
)

DEGREE_CAP = 200


class CapExceeded(AlgebraError):
    """The numerator degree bound exceeded the search cap."""


class NoRationalSolution(AlgebraError):
    pass


class LinODE:
    """p f' + q f = r with univariate rational coefficients."""

    __slots__ = ("p", "q", "r")

    def __init__(self, p, q, r):
        self.p = _uni(p)
        self.q = _uni(q)
        self.r = _uni(r)
        if self.p.is_zero():
            raise AlgebraError("leading coefficient p must be nonzero")

    def residual(self, f):
        return self.p * f.derivative(0) + self.q * f - self.r

    def __repr__(self):
        return "LinODE(%s, %s, %s)" % (self.p.to_string(("x",)),
                                       self.q.to_string(("x",)),
                                       self.r.to_string(("x",)))


def _uni(f):
    if isinstance(f, RatFn):
        if f.nvars != 1:
            raise AlgebraError("expected univariate coefficients")
        return f
    if isinstance(f, Poly):
        return RatFn(f)
    if isinstance(f, (int, Fraction)):
        return RatFn.const(f, 1)
    raise TypeError(repr(f))


def _clear_denominators(ode):
    """Equivalent polynomial equation P f' + Q f = R."""
    den = ode.p.den * ode.q.den * ode.r.den
    P = ode.p.num * ode.q.den * ode.r.den
    Q = ode.q.num * ode.p.den * ode.r.den
    R = ode.r.num * ode.p.den * ode.q.den
    g = poly_gcd(poly_gcd(P, Q), R) if not R.is_zero() else poly_gcd(P, Q)
    if not (g.is_constant() and g.constant_value() == 1):
        P, Q, R = divexact(P, g), divexact(Q, g), divexact(R, g)
    return P, Q, R


def _factor_irreducible(P):
    """Irreducible monic factors of a univariate Poly over Q."""
    coeffs = [Fraction(0)] * (P.total_degree() + 1)
    for e, c in P.terms.items():
        coeffs[e[0]] = c
    return [(Poly(1, {(k,): c for k, c in enumerate(fac)}), mult)
            for fac, mult in factor_list_q(coeffs)]


def _multiplicity(P, pi):
    m = 0
    while True:
        try:
            P2 = divexact(P, pi)
        except AlgebraError:
            return m, P
        P, m = P2, m + 1


def _poly_mod(a, m):
    """Remainder of a modulo m (univariate)."""
    if a.is_zero():
        return a
    dm = m.total_degree()
    lm = m.leading_coeff()
    r = dict(a.terms)
    while r:
        e = max(k[0] for k in r)
        if e < dm:
            break
        c = r[(e,)]
        for e2, c2 in m.terms.items():
            k = (e2[0] + e - dm,)
            s = r.get(k, Fraction(0)) - c / lm * c2
            if s:
                r[k] = s
            else:
                r.pop(k, None)
    return Poly(1, r)


def _mod_inverse(a, m):
    """Inverse of a modulo irreducible m, or None if a = 0 mod m."""
    a = _poly_mod(a, m)
    if a.is_zero():
        return None
    # extended Euclid on coefficient lists
    r0, r1 = m, a
    s0, s1 = Poly.zero(1), Poly.const(1, 1)
    while not r1.is_zero():
        # divide r0 by r1
        q = _poly_quo(r0, r1)
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r0.total_degree() != 0:
        return None  # m not irreducible relative to a; caller handles
    return _poly_mod(s0 * (1 / r0.constant_value()), m)


def _poly_quo(a, b):
    """Univariate polynomial quotient (Euclidean division)."""
    q = Poly.zero(1)
    r = a
    db = b.total_degree()
    lb = b.leading_coeff()
    while not r.is_zero() and r.total_degree() >= db:
        e = r.total_degree()
        c = r.leading_coeff() / lb
        mono = Poly(1, {(e - db,): c})
        q = q + mono
        r = r - mono * b
    return q


def _indicial_candidate(pi, A, B):
    """Integer e > 0 with e * A * pi' = B mod pi, else None."""
    dpi = pi.derivative(0)
    inv = _mod_inverse(_poly_mod(A * dpi, pi), pi)
    if inv is None:
        return None
    val = _poly_mod(B * inv, pi)
    if not val.is_constant():
        return None
    e = val.constant_value()
    if e.denominator == 1 and e > 0:
        return int(e)
    return None


def _solve_linear_system(rows, rhs, ncols):
    """Gaussian elimination over Q.

    rows: list of coefficient lists (len ncols); rhs: list of Fractions.
    Returns (particular | None, nullspace basis vectors).
    """
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    nrows = len(m)
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [c / pv for c in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    for i in range(rank, nrows):
        if m[i][ncols]:
            return None, _nullspace(m[:rank], pivots, ncols)
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = m[i][ncols]
    return particular, _nullspace(m[:rank], pivots, ncols)


def _nullspace(reduced, pivots, ncols):
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -reduced[i][fc]
        basis.append(v)
    return basis


def rational_solutions(ode):
    """All rational solutions: {'particular': f | None, 'homogeneous_basis': g | None}.

    The solution set is particular + span(basis); None components certify
    nonexistence via the indicial/degree bounds.
    """
    P, Q, R = _clear_denominators(ode)
    x = Poly.var(0, 1)
    # denominator bound
    den = Poly.const(1, 1)
    blocked = []
    for pi, p0 in _factor_irreducible(P):
        if pi.total_degree() == 0:
            continue
        q0, qcof = _multiplicity(Q, pi) if not Q.is_zero() else (p0 + 1, None)
        if p0 - 1 < q0:
            e = max(0, p0 - 1)
        elif p0 - 1 > q0:
            e = q0
        else:
            _, pcof = _multiplicity(P, pi)
            cand = _indicial_candidate(pi, pcof, Q if q0 == 0 else qcof)
            e = max(q0, cand if cand is not None else 0)
            if cand is None:
                blocked.append(pi)
        for _ in range(e):
            den = den * pi
    dden = den.total_degree()
    dP = P.total_degree()
    dQ = Q.total_degree() if not Q.is_zero() else -(10 ** 9)
    lcP = P.leading_coeff()
    lcQ = Q.leading_coeff() if not Q.is_zero() else Fraction(0)
    delta = max(dP - 1, dQ) + dden
    cands = []
    rhs_poly = R * den * den
    if not rhs_poly.is_zero():
        cands.append(rhs_poly.total_degree() - delta)
    if dP - 1 > dQ:
        cands.append(dden)
    elif dP - 1 == dQ:
        mstar = Fraction(dden) - lcQ / lcP
        if mstar.denominator == 1 and mstar >= 0:
            cands.append(int(mstar))
    M = max(cands) if cands else -1
    if M > DEGREE_CAP:
        raise CapExceeded("numerator degree bound %d exceeds cap" % M)
    # operator T(n) = P (n' den - n den') + Q n den, solve T(n) = R den^2
    dden_p = den.derivative(0)
    ncols = M + 1
    images = []
    maxdeg = 0
    for k in range(ncols):
        mono = x ** k
        img = P * (mono.derivative(0) * den - mono * dden_p) + Q * mono * den
        images.append(img)
        maxdeg = max(maxdeg, img.total_degree())
    maxdeg = max(maxdeg, rhs_poly.total_degree())
    rows = []
    rhs = []
    for d in range(maxdeg + 1):
        rows.append([img.terms.get((d,), Fraction(0)) for img in images])
        rhs.append(rhs_poly.terms.get((d,), Fraction(0)))
    particular, nullspace = _solve_linear_system(rows, rhs, ncols)

    def build(vec):
        num = Poly(1, {(k,): c for k, c in enumerate(vec)})
        return RatFn(num, den)

    part = None
    if particular is not None:
        part = build(particular)
        if not ode.residual(part).is_zero():
            raise VerificationFailed("particular solution has a nonzero residual")
    basis = None
    real_null = [v for v in nullspace if any(v)]
    if real_null:
        basis = build(real_null[0]).scale_num_monic()
        if not (ode.p * basis.derivative(0) + ode.q * basis).is_zero():
            raise VerificationFailed("homogeneous solution does not solve the ODE")
    return {"particular": part, "homogeneous_basis": basis,
            "blocked_poles": blocked, "degree_bound": M}


# -- the flow-specific equations ------------------------------------------

def dehomogenize(f):
    """2-variable rational f(x, y) -> univariate f(x, 1)."""
    def conv(p):
        terms = {}
        for (i, j), c in p.terms.items():
            terms[(i,)] = terms.get((i,), Fraction(0)) + c
        return Poly(1, terms)
    num = conv(f.num)
    den = conv(f.den)
    if den.is_zero():
        raise AlgebraError("denominator vanishes on y = 1")
    return RatFn(num, den)


def homogenize_0(f, nv=2):
    """Univariate f(t) -> 0-homogenic A(x, y) = f(x/y)."""
    k = max(f.num.total_degree(), f.den.total_degree())
    x = Poly.var(0, nv)
    y = Poly.var(1, nv)

    def conv(p):
        acc = Poly.zero(nv)
        for (i,), c in p.terms.items():
            acc = acc + x ** i * y ** (k - i) * c
        return acc
    return RatFn(conv(f.num), conv(f.den))


def differ_ode(vf):
    """f rho + f' (x rho - w) = -1 on the line y = 1."""
    wt = dehomogenize(vf.w)
    rt = dehomogenize(vf.r)
    x1 = RatFn.var(0, 1)
    return LinODE(x1 * rt - wt, rt, RatFn.const(-1, 1))


def solve_differ(vf):
    """Solve the univariate-form equation; returns the affine family.

    {'particular': f, 'homogeneous_basis': g | None}; A(x,y) = f(x/y) yields the radial
    map putting the flow in univariate form.
    """
    sol = rational_solutions(differ_ode(vf))
    if sol["particular"] is None:
        raise NoRationalSolution("no rational univariate form")
    return sol


def orbit_ode_reduce(vf, N):
    """First-order ODE for w(t) with W = y^N w(x/y) constant on orbits."""
    if N < 1:
        raise AlgebraError("need N >= 1")
    wt = dehomogenize(vf.w)
    rt = dehomogenize(vf.r)
    x1 = RatFn.var(0, 1)
    return LinODE(wt - x1 * rt, N * rt, RatFn.const(0, 1))
