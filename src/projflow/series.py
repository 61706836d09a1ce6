"""Formal jet engine: the homogeneous parts of phi(xz, yz)/z, from a flow's
closed form (``expand_flow``: c_k b_m = a_(m+k) - sum_(j<k) c_j b_(m+k-j)
per coordinate, the recurrence that also decides the boundary condition
c_1 = x, y) or from its vector field (``expand_from_vf``: the Lie
recurrence u_(i+1) = (u_(i),x w + u_(i),y r) / i).  Both recurrences run on
polynomial numerators over a known denominator and reduce each jet once.
Every polynomial of the Lie recurrence is a binary form, so it runs on the
integer coefficient lists of ``algebra`` rather than on ``Poly``, where
n_x P + n_y Q is one pass over the list of n (``_lderive``); on a
polynomial field every jet is a polynomial and the Lie step skips the
quotient rule and all denominator work.  Also diagonal series, which
evaluate each jet's numerator and denominator on integers by a homogeneous
Horner pass, and the denominator-prime diagnostic."""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import (AlgebraError, Poly, RatFn, _content, _form_gcd,
                      _form_list, _form_value, _ladd, _lderive, _ldiv,
                      _list_poly, _lmul, largest_prime_factor)
from .flowcore import _flow_jets


class PoleAtDirection(AlgebraError):
    pass


class JetTable:
    """Homogeneous parts of u(xz,yz)/z and v(xz,yz)/z as series in z.

    u_parts[i-1] is the coefficient of z^{i-1}, an i-homogenic function;
    u_parts[0] = x and v_parts[0] = y by the boundary condition.
    """

    __slots__ = ("order", "u_parts", "v_parts")

    def __init__(self, order, u_parts, v_parts):
        self.order = order
        self.u_parts = u_parts
        self.v_parts = v_parts

    def __eq__(self, other):
        if not isinstance(other, JetTable):
            return NotImplemented
        return (self.order == other.order and self.u_parts == other.u_parts
                and self.v_parts == other.v_parts)

    def __repr__(self):
        return "JetTable(order=%d)" % self.order


def expand_from_vf(vf, K):
    """Jets from the Lie recurrence u_(i+1) = (u_(i),x w + u_(i),y r) / i.

    With the field's stored form w = P/D, r = Q/D and the current jet n/d,
    the next jet is ((n_x P + n_y Q) d - n (d_x P + d_y Q)) / (i d^2 D).
    These are binary forms, so the step runs on the integer lists of
    ``algebra``: n over a positive integer s, d, D, and P and Q over their
    common denominator.  Each jet is reduced by ``_form_gcd``, normalized
    as ``RatFn`` would (d primitive, positive leading entry) and built once,
    n over s with no second gcd, as the step divides both by gcd(s, *n).
    A constant d is 1, and then the step is (n_x P + n_y Q) / (i D); for a
    polynomial field every jet takes that step, one pass of ``_lderive``
    over the list of n, with no gcd or content and one shared constant
    denominator.
    """
    if K < 2:
        raise AlgebraError("order must be >= 2")
    # D is unit-normal, so its denominator is 1
    (P, p), (Q, q), (D, _) = (_form_list(f) for f in (vf.P, vf.Q, vf.D))
    L = lcm(p, q)
    P, Q = [c * (L // p) for c in P], [c * (L // q) for c in Q]
    zero, one = RatFn(Poly.zero(2)), _list_poly([1])
    tables = []
    for start in ([0, 1], [1, 0]):  # x and y
        n, s, d = start, 1, [1]
        jets = [RatFn(_list_poly(n))]
        for i in range(1, K):
            num, den = _lderive(n, P, Q), D
            if len(d) > 1:
                num = _ladd(_lmul(num, d), _lmul(n, _lderive(d, P, Q)), -1)
                den = _lmul(_lmul(d, d), D)
            if not any(num):
                jets += [zero] * (K - i)
                break
            if len(den) > 1:
                g = _form_gcd(num, den)
                if len(g) > 1:
                    num, den = _ldiv(num, g), _ldiv(den, g)
                c = _content(den)
                d = [v // c for v in den]
                if c < 0:
                    c, num = -c, [-v for v in num]
                dpoly = _list_poly(d)
            else:
                # a one-entry den is [1], and so is d: D is unit-normal,
                # and the quotient rule gives len(den) > 1
                c, dpoly = 1, one
            s *= i * L * c
            h = gcd(s, *num)
            n, s = [v // h for v in num], s // h
            jets.append(RatFn(_list_poly(n, s, reduce=False), dpoly,
                              reduce=False))
        tables.append(jets)
    return JetTable(K, *tables)


def expand_flow(f, K):
    """Exact jets of (u(xz,yz)/z, v(xz,yz)/z) to order K >= 2."""
    if K < 2:
        raise AlgebraError("order must be >= 2")
    jets = _flow_jets(f, K)
    if jets is None:
        raise AlgebraError("flow does not satisfy the boundary condition")
    return JetTable(K, *([RatFn(n, p) for n, p in zip(*coord)]
                         for coord in jets))


def diagonal_series(jets, direction):
    """Evaluate the u-jets at a fixed direction; exact coefficients.  Each
    jet is a quotient of binary forms, and at the direction (a/b, c/d) a
    form of degree k takes the value F/(bd)^k, F its value at the integers
    (ad, cb) (``_form_value``), so a jet is one Fraction."""
    (a, b), (c, d) = (Fraction(t).as_integer_ratio() for t in direction)
    X, Y, S = a * d, c * b, b * d
    out = []
    for part in jets.u_parts:
        (n, kn), (p, kp) = (_form_value(part.num, X, Y),
                            _form_value(part.den, X, Y))
        k = kp - kn
        den = p * part.num.den * S ** max(-k, 0)
        if not den:
            raise PoleAtDirection("jet has a pole at %r" % (direction,))
        out.append(Fraction(n * part.den.den * S ** max(k, 0), den))
    return out


def prime_growth_diagnostic(coeffs):
    """Largest prime factor of each denominator plus a growth flag.

    Heuristic evidence for non-rationality (unbounded denominator primes);
    advisory only, never used as a proof.
    """
    if len(coeffs) < 50:
        raise AlgebraError("need at least 50 coefficients")
    largest = []
    for c in coeffs:
        d = Fraction(c).denominator
        largest.append(largest_prime_factor(d) if d > 1 else None)
    primes = [p for p in largest if p is not None]
    envelope = []
    mx = 0
    for p in largest:
        if p is not None and p > mx:
            mx = p
        envelope.append(mx)
    growing = bool(primes) and envelope[-1] > (envelope[len(envelope) // 2] or 0)
    return {
        "largest_prime_per_denominator": largest,
        "max_prime": max(primes) if primes else None,
        "monotonic_envelope": envelope,
        "unbounded_denominator_primes_suspected": growing,
    }
