"""Formal jet engine: expand flows in z from the vector field recurrence or
from a closed form, diagonal series, and the denominator-prime diagnostic."""
from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraError, Poly, RatFn
from .flowcore import _coord_jets, check_boundary


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


def _is_poly_vf(vf):
    return vf.w.is_polynomial() and vf.r.is_polynomial()


def expand_from_vf(vf, K):
    """Jets from the recurrence w^(i+1) = (1/i)(w^(i)_x w + w^(i)_y r)."""
    if K < 2:
        raise AlgebraError("order must be >= 2")
    if _is_poly_vf(vf):
        w = vf.w.as_poly()
        r = vf.r.as_poly()
        u_parts = [Poly.var(0, 2)]
        v_parts = [Poly.var(1, 2)]
        for i in range(1, K):
            u_parts.append((u_parts[-1].derivative(0) * w
                            + u_parts[-1].derivative(1) * r) * Fraction(1, i))
            v_parts.append((v_parts[-1].derivative(0) * w
                            + v_parts[-1].derivative(1) * r) * Fraction(1, i))
        return JetTable(K, [RatFn(p) for p in u_parts], [RatFn(p) for p in v_parts])
    w, r = vf.w, vf.r
    u_parts = [RatFn.var(0, 2)]
    v_parts = [RatFn.var(1, 2)]
    for i in range(1, K):
        u_parts.append((u_parts[-1].derivative(0) * w
                        + u_parts[-1].derivative(1) * r) * Fraction(1, i))
        v_parts.append((v_parts[-1].derivative(0) * w
                        + v_parts[-1].derivative(1) * r) * Fraction(1, i))
    return JetTable(K, u_parts, v_parts)


def expand_flow(f, K):
    """Exact jets of (u(xz,yz)/z, v(xz,yz)/z) to order K."""
    if not check_boundary(f):
        raise AlgebraError("flow does not satisfy the boundary condition")
    return JetTable(K, _coord_jets(f.u, K), _coord_jets(f.v, K))


def diagonal_series(jets, direction):
    """Evaluate the u-jets at a fixed direction; exact coefficients."""
    out = []
    for part in jets.u_parts:
        try:
            out.append(part.eval(direction))
        except ZeroDivisionError:
            raise PoleAtDirection("jet has a pole at %r" % (direction,))
    return out


def _largest_prime_factor(n):
    n = abs(n)
    largest = None
    d = 2
    while d * d <= n:
        while n % d == 0:
            largest = d
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        largest = n
    return largest


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
        largest.append(_largest_prime_factor(d) if d > 1 else None)
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
