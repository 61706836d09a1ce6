"""Rational solutions of first-order linear ODEs p f' + q f = r over Q(x).

Nonexistence is proved via pole-order (indicial) bounds at each irreducible
factor of the leading coefficient (Abramov's denominator bound) and a
degree bound at infinity, then a finite linear system; no sampling is
involved.  The solver clears denominators and runs on the integer
coefficient lists of ``algebra``: the leading coefficient is factored by
``factor_list_q``, the indicial congruence at each factor is solved on
remainders mod that factor, and the system is eliminated fraction-free on
integer rows.  Only the solutions are built as ``RatFn``, and each is
checked against the equation (``LinODE.solved_by``).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algebra import (
    AlgebraError,
    CapExceeded,
    Poly,
    RatFn,
    VerificationFailed,
    _form_gcd,
    _form_list,
    _ladd,
    _ldiff,
    _ldiv,
    _list_poly,
    _lmul,
    _prem,
    _primitive,
    factor_list_q,
    poly_dot,
)

DEGREE_CAP = 200


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

    def solved_by(self, n, d):
        """Whether n/d solves the equation, for univariate Polys n and d that
        need not be coprime: with p = pn/pd, q = qn/qd and r = rn/rd, the
        polynomial identity pn qd rd (n' d - n d') + qn pd rd n d = rn pd
        qd d^2, checked without a gcd."""
        if d.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        (pn, pd), (qn, qd), (rn, rd) = ((c.num, c.den)
                                        for c in (self.p, self.q, self.r))
        wronskian = poly_dot([(n.derivative(0), d), (-n, d.derivative(0))])
        lhs = poly_dot([(pn * qd, wronskian), (qn * pd, n * d)]) * rd
        return lhs == rn * pd * qd * d * d

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


def _lists(f):
    """(n, d) for a univariate RatFn f = n/d, as integer lists."""
    (n, a), (d, _) = _form_list(f.num), _form_list(f.den)
    return n, [v * a for v in d]


def _clear_denominators(ode):
    """Equivalent polynomial equation P f' + Q f = R, as integer lists
    (zero is []) with no common factor in Z[x]."""
    (pn, pd), (qn, qd), (rn, rd) = (_lists(c) for c in (ode.p, ode.q, ode.r))
    P = _lmul(_lmul(pn, qd), rd)
    Q = _lmul(_lmul(qn, pd), rd)
    R = _lmul(_lmul(rn, pd), qd)
    g = _primitive(P)
    for h in (Q, R):
        if h and len(g) > 1:
            g = _form_gcd(g, h)
    c = gcd(*P, *Q, *R)
    return tuple(_ldiv([v // c for v in h], g) if h else h for h in (P, Q, R))


def _multiplicity(Q, pi):
    """(m, Q / pi^m) for the largest m with pi^m dividing Q != 0."""
    m = 0
    while (q := _ldiv(Q, pi)) is not None:
        Q, m = q, m + 1
    return m, Q


def _indicial_candidate(pi, A, B):
    """Integer e > 0 with e * A * pi' = B mod pi, else None, for integer
    lists.

    Reduced mod pi both sides have degree below deg pi, so the congruence
    is the identity e * a = b of a = A pi' rem pi and b = B rem pi.  Both
    are integer pseudo-remainders (``_prem``) of lists padded to one
    length, so they carry one power of lc(pi), which cancels in e.
    """
    f = _lmul(A, _ldiff(pi))
    n = max(len(f), len(B))
    a, b = (_prem(c + [0] * (n - len(c)), pi) for c in (f, B))
    if not a or len(a) != len(b):
        return None
    e, r = divmod(b[-1], a[-1])
    return e if not r and e > 0 and b == [e * v for v in a] else None


def _solve_linear_system(rows, rhs, ncols):
    """Gauss-Jordan elimination on integer rows, fraction-free.

    rows: list of integer coefficient lists (len ncols); rhs: list of
    integers.  Each elimination step replaces a row r by pv * r - f * s for
    the pivot row s and divides it by its content, so the rows stay
    integer; a pivot row over its pivot entry is then a row of the reduced
    row echelon form, which is unique, so the result is that of
    elimination over Q.  Returns (particular | None, nullspace basis
    vectors), with Fraction entries.
    """
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    nrows = len(m)
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        s = m[rank]
        pv = s[col]
        for i in range(nrows):
            f = m[i][col]
            if i != rank and f:
                r = [pv * a - f * b for a, b in zip(m[i], s)]
                g = gcd(*r)
                m[i] = [a // g for a in r] if g > 1 else r
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    particular = None
    if not any(row[ncols] for row in m[rank:]):
        particular = [Fraction(0)] * ncols
        for row, col in zip(m, pivots):
            particular[col] = Fraction(row[ncols], row[col])
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for row, col in zip(m, pivots):
                v[col] = Fraction(-row[fc], row[col])
            basis.append(v)
    return particular, basis


def _operator_system(P, Q, den, rhs, M):
    """(rows, rhs): T(n) = rhs for n of degree at most M, one row per power
    of x up to the highest that occurs, for the operator T(n) = P (n' den -
    n den') + Q n den, on integer lists.

    T(n) = n' A + n B with A = P den and B = Q den - P den', so T(x^k) =
    k x^(k-1) A + x^k B: the column of x^k holds the coefficients of A and
    B shifted, and no product is formed per column."""
    A = _lmul(P, den)
    B = _ladd(_lmul(Q, den), _lmul(P, _ldiff(den)), -1)

    def at(c, i):
        return c[i] if 0 <= i < len(c) else 0

    nrows = max(len(A) + M - 1, len(B) + M, len(rhs), 1)
    rows = [[k * at(A, m - k + 1) + at(B, m - k) for k in range(M + 1)]
            for m in range(nrows)]
    rhs = [at(rhs, m) for m in range(nrows)]
    while len(rows) > 1 and not rhs[-1] and not any(rows[-1]):
        rows.pop()
        rhs.pop()
    return rows, rhs


def rational_solutions(ode):
    """All rational solutions as {'particular': f | None,
    'homogeneous_basis': g | None}.

    The solution set is particular + span(g): f is one solution and g spans
    those of the homogeneous equation p f' + q f = 0, with a monic
    numerator.  A None component certifies, through the indicial and degree
    bounds, that no rational solution of that kind exists.
    """
    P, Q, R = _clear_denominators(ode)
    # denominator bound
    den = [1]
    for pi, p0 in factor_list_q(P):
        q0, qcof = _multiplicity(Q, pi) if Q else (p0 + 1, None)
        if p0 - 1 < q0:
            e = max(0, p0 - 1)
        elif p0 - 1 > q0:
            e = q0
        else:
            # p0 is pi's multiplicity in P, so these divisions are exact
            A = P
            for _ in range(p0):
                A = _ldiv(A, pi)
            cand = _indicial_candidate(pi, A, qcof)
            e = max(q0, cand if cand is not None else 0)
        for _ in range(e):
            den = _lmul(den, pi)
    dden = len(den) - 1
    dP = len(P) - 1
    dQ = len(Q) - 1 if Q else -(10 ** 9)
    delta = max(dP - 1, dQ) + dden
    cands = [-1]
    rhs = _lmul(_lmul(R, den), den)
    if rhs:
        cands.append(len(rhs) - 1 - delta)
    if dP - 1 > dQ:
        cands.append(dden)
    elif dP - 1 == dQ:
        mstar = dden - Fraction(Q[-1], P[-1])
        if mstar.denominator == 1 and mstar >= 0:
            cands.append(int(mstar))
    M = max(cands)
    if M > DEGREE_CAP:
        raise CapExceeded("numerator degree bound %d exceeds cap" % M)
    rows, rhs = _operator_system(P, Q, den, rhs, M)
    particular, nullspace = _solve_linear_system(rows, rhs, M + 1)
    den = _list_poly(den, nvars=1)

    def build(vec):
        num = Poly(1, {(k,): c for k, c in enumerate(vec)})
        return RatFn(num, den)

    part = None
    if particular is not None:
        part = build(particular)
        if not ode.solved_by(part.num, part.den):
            raise VerificationFailed("particular solution has a nonzero residual")
    basis = None
    real_null = [v for v in nullspace if any(v)]
    if real_null:
        basis = build(real_null[0]).scale_num_monic()
        if not LinODE(ode.p, ode.q, 0).solved_by(basis.num, basis.den):
            raise VerificationFailed("homogeneous solution does not solve the ODE")
    return {"particular": part, "homogeneous_basis": basis}


# -- the flow-specific equations ------------------------------------------

def _on_y1(p):
    """2-variable polynomial p(x, y) -> univariate p(x, 1)."""
    return _list_poly(*_form_list(p), nvars=1)


def dehomogenize(f):
    """2-variable rational f(x, y) -> univariate f(x, 1)."""
    den = _on_y1(f.den)
    if den.is_zero():
        raise AlgebraError("denominator vanishes on y = 1")
    return RatFn(_on_y1(f.num), den)


def homogenize_0(f):
    """Univariate f(t) -> 0-homogenic A(x, y) = f(x/y).

    Both sides become forms of degree k, the larger of the two degrees.
    Not reduced again: the side of degree k has no factor y, so the forms
    stay coprime, and the grlex leading term of the denominator is its
    univariate one."""
    k = max(f.num.total_degree(), f.den.total_degree())

    def conv(p):
        c, den = _form_list(p)
        return _list_poly(c + [0] * (k + 1 - len(c)), den)
    return RatFn(conv(f.num), conv(f.den), reduce=False)


def differ_ode(vf):
    """The univariate-form equation f rho + f' (x rho - omega) = -1 for
    omega = w(x, 1) and rho = r(x, 1), multiplied through by D(x, 1) so that
    its coefficients are polynomials: f Q + f' (x Q - P) = -D at y = 1."""
    P, Q, D = (_on_y1(g) for g in (vf.P, vf.Q, vf.D))
    return LinODE(Poly.var(0, 1) * Q - P, Q, -D)


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
    """First-order ODE for w(t) with W = y^N w(x/y) constant on orbits:
    (omega - t rho) w' + N rho w = 0 for omega = w(t, 1) and rho = r(t, 1)
    of the field, multiplied through by D(t, 1) so that its coefficients are
    polynomials: (P - t Q) w' + N Q w = 0 at y = 1."""
    if N < 1:
        raise AlgebraError("need N >= 1")
    P, Q = _on_y1(vf.P), _on_y1(vf.Q)
    return LinODE(P - Poly.var(0, 1) * Q, N * Q, 0)
