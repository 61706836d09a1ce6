"""The rational ODE solver on Fractions, as it was before the solver moved to
integer lists: coefficients are Fraction lists, irreducible factors come
monic from sympy's ``dup_factor_list`` over QQ, and the linear system is
eliminated over Q.  Tests compare ``odesolve.rational_solutions`` with
``rational_solutions`` here."""
from fractions import Fraction

from projflow import CapExceeded, Poly, RatFn
from projflow.algebra import _form_list, _quotient, divexact, poly_gcd
from projflow.odesolve import DEGREE_CAP


def _coeffs(P):
    """Coefficients of a univariate Poly, low to high."""
    c, den = _form_list(P)
    return [Fraction(v, den) for v in c]


def _factor_irreducible(P):
    """Irreducible monic factors of a univariate Poly over Q."""
    from sympy.polys.densetools import dup_monic
    from sympy.polys.domains import QQ
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list(
        [QQ(c.numerator, c.denominator) for c in reversed(_coeffs(P))], QQ)
    return [(Poly(1, {(k,): Fraction(int(c.numerator), int(c.denominator))
                      for k, c in enumerate(reversed(dup_monic(fac, QQ)))}),
             mult) for fac, mult in factors]


def _clear_denominators(ode):
    P = ode.p.num * ode.q.den * ode.r.den
    Q = ode.q.num * ode.p.den * ode.r.den
    R = ode.r.num * ode.p.den * ode.q.den
    g = poly_gcd(poly_gcd(P, Q), R) if not R.is_zero() else poly_gcd(P, Q)
    if not (g.is_constant() and g.constant_value() == 1):
        P, Q, R = divexact(P, g), divexact(Q, g), divexact(R, g)
    return P, Q, R


def _multiplicity(Q, pi):
    m = 0
    while (q := _quotient(Q, pi)) is not None:
        Q, m = q, m + 1
    return m, Q


def _rem(f, g):
    """The remainder of f by g over Q, for lists of rationals low to high
    with g's last entry nonzero; without trailing zeros."""
    r = list(f)
    while len(r) >= len(g):
        q = Fraction(r.pop()) / g[-1]
        for i, v in enumerate(g[:-1], len(r) - len(g) + 1):
            r[i] -= q * v
    while r and not r[-1]:
        r.pop()
    return r


def _indicial_candidate(pi, A, B):
    """Integer e > 0 with e * A * pi' = B mod pi, else None."""
    m = _coeffs(pi)
    a = _rem(_coeffs(A * pi.derivative(0)), m)
    b = _rem(_coeffs(B), m)
    if not a or len(a) != len(b):
        return None
    e = b[-1] / a[-1]
    if e > 0 and e.denominator == 1 and b == [e * v for v in a]:
        return int(e)
    return None


def _solve_linear_system(rows, rhs, ncols):
    """Gauss-Jordan elimination over Q: (particular | None, nullspace)."""
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    nrows = len(m)
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
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
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -m[i][fc]
        basis.append(v)
    if any(m[i][ncols] for i in range(rank, nrows)):
        return None, basis
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = m[i][ncols]
    return particular, basis


def _operator_system(P, Q, den, rhs_poly, M):
    """The column of x^k is T(x^k) = k x^(k-1) P den + x^k (Q den - P den')."""
    A = _coeffs(P * den)
    B = _coeffs(Q * den - P * den.derivative(0))
    C = _coeffs(rhs_poly)
    zero = Fraction(0)

    def at(c, i):
        return c[i] if 0 <= i < len(c) else zero

    nrows = max(len(A) + M - 1, len(B) + M, len(C), 1)
    rows = [[k * at(A, m - k + 1) + at(B, m - k) for k in range(M + 1)]
            for m in range(nrows)]
    rhs = [at(C, m) for m in range(nrows)]
    while len(rows) > 1 and not rhs[-1] and not any(rows[-1]):
        rows.pop()
        rhs.pop()
    return rows, rhs


def rational_solutions(ode):
    """{'particular': f | None, 'homogeneous_basis': g | None}, unchecked."""
    P, Q, R = _clear_denominators(ode)
    den = Poly.const(1, 1)
    for pi, p0 in _factor_irreducible(P):
        q0, qcof = _multiplicity(Q, pi) if not Q.is_zero() else (p0 + 1, None)
        if p0 - 1 < q0:
            e = max(0, p0 - 1)
        elif p0 - 1 > q0:
            e = q0
        else:
            cand = _indicial_candidate(pi, divexact(P, pi ** p0), qcof)
            e = max(q0, cand if cand is not None else 0)
        den = den * pi ** e
    dden = den.total_degree()
    dP = P.total_degree()
    dQ = Q.total_degree() if not Q.is_zero() else -(10 ** 9)
    delta = max(dP - 1, dQ) + dden
    cands = [-1]
    rhs_poly = R * den * den
    if not rhs_poly.is_zero():
        cands.append(rhs_poly.total_degree() - delta)
    if dP - 1 > dQ:
        cands.append(dden)
    elif dP - 1 == dQ:
        mstar = Fraction(dden) - Q.leading_coeff() / P.leading_coeff()
        if mstar.denominator == 1 and mstar >= 0:
            cands.append(int(mstar))
    M = max(cands)
    if M > DEGREE_CAP:
        raise CapExceeded("numerator degree bound %d exceeds cap" % M)
    rows, rhs = _operator_system(P, Q, den, rhs_poly, M)
    particular, nullspace = _solve_linear_system(rows, rhs, M + 1)

    def build(vec):
        return RatFn(Poly(1, {(k,): c for k, c in enumerate(vec)}), den)

    real_null = [v for v in nullspace if any(v)]
    return {"particular": None if particular is None else build(particular),
            "homogeneous_basis": build(real_null[0]).scale_num_monic()
            if real_null else None}


def residual(ode, f):
    """p f' + q f - r on RatFn arithmetic: zero iff f solves the equation."""
    return ode.p * f.derivative(0) + ode.q * f - ode.r
