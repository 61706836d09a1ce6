"""Rational solutions of first-order linear ODEs p f' + q f = r over Q(x).

Nonexistence is proved via pole-order (indicial) bounds at each irreducible
factor of the leading coefficient (Abramov's denominator bound) and a
degree bound at infinity, then a finite linear system; no sampling is
involved.  The solver ``_solutions`` runs on integer coefficient lists:
the leading coefficient is factored by ``factor_list_q``, the indicial
congruence at each factor is solved on remainders mod that factor, the
system is eliminated fraction-free, and each solution is checked by one
list identity (``_solves``).  The flow's two equations are built as
lists; only the public wrappers build a ``LinODE`` or ``RatFn``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import (
    AlgebraError,
    CapExceeded,
    Poly,
    RatFn,
    VerificationFailed,
    _content,
    _form_gcd,
    _form_lists,
    _ladd,
    _ldiff,
    _ldiv,
    _list_poly,
    _lmul,
    _multiplicity,
    _prem,
    _primitive,
    _trim,
    factor_list_q,
)

DEGREE_CAP = 200


class NoRationalSolution(AlgebraError):
    pass


class LinODE:
    """p f' + q f = r with univariate rational coefficients."""

    __slots__ = ("p", "q", "r")

    def __init__(self, p, q, r):
        self.p, self.q, self.r = map(_uni, (p, q, r))
        if self.p.is_zero():
            raise AlgebraError("leading coefficient p must be nonzero")

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


def _ode_lists(ode):
    """The lists (P, Q, R) of the equation over its denominators."""
    (pn, pd), (qn, qd), (rn, rd) = (_form_lists(c.num, c.den)[0]
                                    for c in (ode.p, ode.q, ode.r))
    return (_lmul(_lmul(pn, qd), rd), _lmul(_lmul(qn, pd), rd),
            _lmul(_lmul(rn, pd), qd))


def _solves(P, Q, R, n, d):
    """Whether n/d solves P f' + Q f = R, for integer lists (zero top
    entries allowed), d != []: P (n' d - n d') + Q n d == R d^2."""
    w = _ladd(_lmul(_ldiff(n), d), _lmul(n, _ldiff(d)), -1)
    lhs = _ladd(_lmul(P, w), _lmul(_lmul(Q, n), d))
    return _trim(lhs) == _trim(_lmul(_lmul(R, d), d))


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
    """Gauss-Jordan elimination on integer rows (of length ncols) and
    right sides, fraction-free.

    Each elimination step replaces a row r by pv * r - f * s for the pivot
    row s and divides it by its content, so the rows stay integer; a pivot
    row over its pivot entry is then a row of the reduced row echelon
    form, which is unique, so the result is that of elimination over Q.
    Returns (particular | None, nullspace basis vectors, k): integer
    vectors, k times those over Q for k the lcm of the pivot entries.
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
    k = lcm(*(row[col] for row, col in zip(m, pivots)))
    scaled = [(row, col, k // row[col]) for row, col in zip(m, pivots)]
    particular = None
    if not any(row[ncols] for row in m[rank:]):
        particular = [0] * ncols
        for row, col, t in scaled:
            particular[col] = row[ncols] * t
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [0] * ncols
            v[fc] = k
            for row, col, t in scaled:
                v[col] = -row[fc] * t
            basis.append(v)
    return particular, basis, k


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


def _solutions(P, Q, R):
    """(particular, basis) of P f' + Q f = R for integer lists, P != []:
    pairs (n, d) of integer lists, f = n/d, checked by ``_solves``.

    The solutions are particular + span(basis), basis one of P f' + Q f =
    0.  A None component certifies, through the indicial and degree
    bounds, that no rational solution of that kind exists.
    """
    if not P:
        raise AlgebraError("leading coefficient p must be nonzero")
    g = _primitive(P)
    for h in (Q, R):
        if h and len(g) > 1:
            g = _form_gcd(g, h)
    c = gcd(*P, *Q, *R)
    P, Q, R = (_ldiv([v // c for v in h], g) if h else h for h in (P, Q, R))
    # denominator bound
    den = [1]
    for pi, p0 in factor_list_q(P):
        q0, qcof = _multiplicity(Q, pi) if Q else (p0 + 1, None)
        if p0 - 1 < q0:
            e = max(0, p0 - 1)
        elif p0 - 1 > q0:
            e = q0
        else:
            cand = _indicial_candidate(pi, _multiplicity(P, pi)[1], qcof)
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
    particular, nullspace, k = _solve_linear_system(rows, rhs, M + 1)
    den = [k * v for v in den]
    out = []
    for vec, r in ((particular, R), (nullspace[0] if nullspace else None, [])):
        if vec is not None:
            vec = _trim(vec), den
            if not _solves(P, Q, r, *vec):
                raise VerificationFailed("solution fails the ODE")
        out.append(vec)
    return tuple(out)


def _ratfns(particular, basis):
    """``_solutions`` as RatFns, the basis with a monic numerator."""
    f, g = (pair and RatFn(*(_list_poly(c, nvars=1) for c in pair))
            for pair in (particular, basis))
    return {"particular": f, "homogeneous_basis": g and g.scale_num_monic()}


def rational_solutions(ode):
    """All rational solutions as {'particular': f | None,
    'homogeneous_basis': g | None} (``_solutions``)."""
    return _ratfns(*_solutions(*_ode_lists(ode)))


# -- the flow-specific equations ------------------------------------------

def dehomogenize(f):
    """2-variable rational f(x, y) -> univariate f(x, 1)."""
    num, den = (_list_poly(c, nvars=1) for c in _form_lists(f.num, f.den)[0])
    if den.is_zero():
        raise AlgebraError("denominator vanishes on y = 1")
    return RatFn(num, den)


def _homogenize(n, d):
    """A(x, y) = f(x/y) for f = n/d, integer lists in x, d with a positive
    leading entry, reduced as RatFn reduces, both sides forms of the larger
    degree k (the side of degree k has no factor y, and d's leading entry
    leads its form)."""
    if not n:
        d = [1]
    elif len(g := _form_gcd(n, d)) > 1:
        n, d = _ldiv(n, g), _ldiv(d, g)
    c = _content(d)
    k = max(len(n), len(d))
    return RatFn(*(_list_poly(h + [0] * (k - len(h)), s)
                   for h, s in ((n, c), ([v // c for v in d], 1))),
                 reduce=False)


def homogenize_0(f):
    """Univariate f(t) -> 0-homogenic A(x, y) = f(x/y)."""
    return _homogenize(*_form_lists(f.num, f.den)[0])


def _form_equation(vf):
    """(x Q - P) f' + Q f = -D on the lists of L P, L Q, L D at y = 1: the
    univariate-form equation f rho + f' (x rho - omega) = -1 times D(x, 1)."""
    P, Q, D = map(_trim, _form_lists(vf.P, vf.Q, vf.D)[0])
    return _trim(_ladd([0] + Q, P, -1)), Q, [-v for v in D]


def _orbit_equation(vf, N):
    """(P - x Q) w' + N Q w = 0 on the same lists: the orbit equation
    (omega - x rho) w' + N rho w = 0 of W = y^N w(x/y) times D(x, 1)."""
    if N < 1:
        raise AlgebraError("need N >= 1")
    p, Q, _ = _form_equation(vf)
    return [-v for v in p], [N * v for v in Q], []


def _linode(eq, vf):
    L = _form_lists(vf.P, vf.Q, vf.D)[1]
    return LinODE(*(_list_poly(c, L, nvars=1) for c in eq))


def differ_ode(vf):
    """The univariate-form equation (``_form_equation``) as a LinODE."""
    return _linode(_form_equation(vf), vf)


def _univariate_form(vf):
    """``_solutions`` of the univariate-form equation; the particular f
    gives the radial map A(x, y) = f(x/y) to univariate form."""
    sol = _solutions(*_form_equation(vf))
    if sol[0] is None:
        raise NoRationalSolution("no rational univariate form")
    return sol


def solve_differ(vf):
    """``_univariate_form`` as {'particular': f, 'homogeneous_basis':
    g | None}."""
    return _ratfns(*_univariate_form(vf))


def orbit_ode_reduce(vf, N):
    """The orbit equation of the field for N >= 1 as a LinODE."""
    return _linode(_orbit_equation(vf, N), vf)
